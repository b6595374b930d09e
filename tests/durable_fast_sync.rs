//! Durability end-to-end: a full FL run — dropout lifecycle included —
//! persisted to a write-ahead log on disk, then certified entirely from
//! the cold bytes by `fedchain::audit::fast_sync`. The on-disk chain
//! must reproduce the live chain's tip digest exactly, from genesis and
//! from a verified snapshot alike.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fedchain::audit::{fast_sync, replay_chain, AuditError, FastSyncError};
use fedchain::config::FlConfig;
use fedchain::protocol::{FlProtocol, ProtocolError};
use fedchain::{FlCall, FlError, FlParams};
use fl_chain::durability::{DurabilityConfig, DurabilityError, DurableStore};
use fl_chain::log::LogConfig;
use fl_ml::dataset::{Dataset, SyntheticDigits};
use numeric::par;

/// The thread cap is process-global; tests that set it take turns.
static THREAD_CAP: Mutex<()> = Mutex::new(());

struct TestDir(PathBuf);

impl TestDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("transparent-fl-{tag}-{}-{n}", std::process::id()));
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

/// quick_demo with a dropout in round 0: setup block + survivor block +
/// recovery block = 3 blocks, exercising the full dropout lifecycle.
fn dropout_config() -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.dropout_schedule = vec![(0, vec![1])];
    config
}

/// Small segments so the 3-block chain spans several; snapshots at every
/// block when `snapshot_every` is 1.
fn durability_config(snapshot_every: u64) -> DurabilityConfig {
    DurabilityConfig {
        log: LogConfig {
            segment_bytes: 16 * 1024,
        },
        snapshot_every,
    }
}

#[test]
fn dropout_run_fast_syncs_from_cold_disk_to_identical_tip() {
    let dir = TestDir::new("genesis-sync");
    let mut protocol = FlProtocol::new(dropout_config()).expect("valid config");
    // No snapshot cadence: this sync must replay from genesis.
    protocol
        .persist_to(dir.path(), durability_config(u64::MAX))
        .expect("fresh dir attaches");
    protocol.run().expect("honest run");

    let live_store = protocol.engine().store_of(0).expect("miner 0");
    let live_tip = live_store.tip_digest();
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    drop(protocol); // everything below runs from cold bytes only

    let report = fast_sync(dir.path(), params, test_set).expect("cold chain certifies");
    assert_eq!(report.synced_from, 0, "no snapshot: genesis replay");
    assert_eq!(report.blocks, 3, "setup + survivor + recovery blocks");
    assert!(report.truncated.is_none());
    assert!(
        report.audit.clean,
        "every state root must verify: {:#?}",
        report.audit.blocks
    );
    assert_eq!(
        report.tip_digest, live_tip,
        "the on-disk chain is bit-identical to the live chain"
    );
}

/// 8 owners in 2 cohorts: the sharded round streams one block per
/// cohort through the mempool instead of one mega-block.
fn sharded_config() -> FlConfig {
    let mut config = FlConfig::quick_demo();
    config.num_owners = 8;
    config.num_groups = 2;
    config.num_cohorts = 2;
    config
}

#[test]
fn sharded_run_fast_syncs_from_cold_disk_to_identical_tip() {
    let dir = TestDir::new("cohort-sync");
    let mut protocol = FlProtocol::new(sharded_config()).expect("valid config");
    protocol
        .persist_to(dir.path(), durability_config(u64::MAX))
        .expect("fresh dir attaches");
    protocol.run().expect("honest run");

    let live_tip = protocol.engine().store_of(0).expect("miner 0").tip_digest();
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    drop(protocol); // everything below runs from cold bytes only

    let report = fast_sync(dir.path(), params, test_set).expect("cold sharded chain certifies");
    assert_eq!(report.blocks, 3, "setup + one block per cohort");
    assert!(
        report.audit.clean,
        "per-cohort evidence must replay exactly: {:#?}",
        report.audit.blocks
    );
    assert_eq!(
        report.tip_digest, live_tip,
        "the on-disk sharded chain is bit-identical to the live chain"
    );
}

#[test]
fn fast_sync_from_snapshot_verifies_and_matches_genesis_replay() {
    let dir = TestDir::new("snap-sync");
    let mut protocol = FlProtocol::new(dropout_config()).expect("valid config");
    // Snapshot after every block: the newest covers all but none or few
    // trailing blocks, so the sync is a true snapshot-then-verify.
    protocol
        .persist_to(dir.path(), durability_config(1))
        .expect("fresh dir attaches");
    protocol.run().expect("honest run");

    let live_tip = protocol.engine().store_of(0).expect("miner 0").tip_digest();
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    let live_contributions: Vec<(u32, f64)> = protocol
        .contract()
        .contributions()
        .iter()
        .map(|(&id, &v)| (id, v))
        .collect();
    drop(protocol);

    let report =
        fast_sync(dir.path(), params.clone(), test_set.clone()).expect("snapshot sync certifies");
    assert!(
        report.synced_from > 0,
        "a snapshot must have anchored the sync"
    );
    assert!(report.audit.clean);
    assert_eq!(report.tip_digest, live_tip);
    // The snapshot path reconstructs the exact same final ledger a
    // genesis replay (and the live contract) holds.
    assert_eq!(report.audit.final_contributions, live_contributions);
}

#[test]
fn fast_sync_rejects_a_forged_snapshot_state() {
    // A CRC-valid, tip-bound snapshot whose *state* was forged must be
    // caught by the digest proof against the committed state root.
    let dir = TestDir::new("forged-snap");
    let mut protocol = FlProtocol::new(dropout_config()).expect("valid config");
    protocol
        .persist_to(dir.path(), durability_config(u64::MAX))
        .expect("fresh dir attaches");
    protocol.run().expect("honest run");
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();

    // Forge: a snapshot of the *genesis* state claiming the tip height.
    // write_snapshot frames and binds it correctly — only the state blob
    // lies — so every durability-layer check passes.
    let genesis_state =
        fedchain::FlContract::genesis(params.clone(), test_set.clone()).snapshot_state();
    let (mut durable, _) = fl_chain::durability::DurableStore::<fedchain::FlCall>::open(
        dir.path(),
        durability_config(u64::MAX),
    )
    .expect("reopen");
    durable
        .write_snapshot(&genesis_state)
        .expect("forged snapshot writes");
    drop(durable);

    match fast_sync(dir.path(), params, test_set) {
        Err(FastSyncError::SnapshotStateMismatch { height: 3, .. }) => {}
        other => panic!("forged snapshot must be rejected, got {other:?}"),
    }
}

#[test]
fn hostile_genesis_params_are_a_typed_error_from_both_audit_entry_points() {
    // An auditor is handed the parameters and test set from outside. Each
    // hostile case below used to panic inside `FlContract::genesis` (or
    // `restore`, on the snapshot path) instead of returning an error.
    let dir = TestDir::new("hostile-params");
    let mut protocol = FlProtocol::new(dropout_config()).expect("valid config");
    protocol
        .persist_to(dir.path(), durability_config(1))
        .expect("fresh dir attaches");
    protocol.run().expect("honest run");
    let store = protocol.engine().store_of(0).expect("miner 0");
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    let n = params.owners.len();

    let hostile: [(&str, FlParams, Dataset); 5] = [
        (
            "num_groups = 0",
            FlParams {
                num_groups: 0,
                ..params.clone()
            },
            test_set.clone(),
        ),
        (
            "escrow_threshold = n + 1",
            FlParams {
                escrow_threshold: n + 1,
                ..params.clone()
            },
            test_set.clone(),
        ),
        (
            "mismatched model_dim",
            FlParams {
                model_dim: params.model_dim + 1,
                ..params.clone()
            },
            test_set.clone(),
        ),
        (
            // Genesis took it; the first evaluation's codec asserted.
            "frac_bits = 80",
            FlParams {
                frac_bits: 80,
                ..params.clone()
            },
            test_set.clone(),
        ),
        (
            "test set with the wrong feature count",
            params.clone(),
            SyntheticDigits {
                features: params.num_features + 1,
                ..SyntheticDigits::small()
            }
            .generate(7),
        ),
    ];
    for (case, params, test_set) in hostile {
        match replay_chain(store, params.clone(), test_set.clone()) {
            Err(AuditError::InvalidParams(FlError::InvalidParams(_))) => {}
            other => panic!("{case}: replay_chain gave {other:?}"),
        }
        match fast_sync(dir.path(), params, test_set) {
            Err(FastSyncError::Audit(AuditError::InvalidParams(FlError::InvalidParams(_)))) => {}
            other => panic!("{case}: fast_sync gave {other:?}"),
        }
    }
    // The honest artefacts still certify the same directory.
    assert!(
        fast_sync(dir.path(), params, test_set)
            .expect("certifies")
            .audit
            .clean
    );
}

#[test]
fn fast_sync_survives_a_torn_tail_and_recertifies_the_prefix() {
    // Simulate a crash mid-write of the final block record, then certify
    // what remains: the clean prefix must still audit end-to-end.
    let dir = TestDir::new("torn-sync");
    let mut protocol = FlProtocol::new(dropout_config()).expect("valid config");
    protocol
        .persist_to(dir.path(), durability_config(u64::MAX))
        .expect("fresh dir attaches");
    protocol.run().expect("honest run");
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    drop(protocol);

    // Tear the tail: chop bytes off the final segment file.
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.path())
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    let last = segments.last().expect("segments exist");
    let bytes = std::fs::read(last).expect("read segment");
    std::fs::write(last, &bytes[..bytes.len() - 7]).expect("tear tail");

    let report = fast_sync(dir.path(), params, test_set).expect("prefix certifies");
    assert!(report.truncated.is_some(), "the torn tail must be reported");
    assert_eq!(report.blocks, 2, "final record lost, prefix recovered");
    assert!(report.audit.clean, "the surviving prefix still verifies");
}

/// Every file of a chain directory, name and bytes, in name order.
fn dir_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .map(|p| {
            let name = p
                .file_name()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&p).expect("read file"))
        })
        .collect();
    files.sort();
    files
}

/// The sharded config with owners dropping in rounds 0 and 2, three
/// rounds: streams end at heights 1 (setup), 3, 4 (recovery), 6, 8 and
/// 9 (recovery). A cohort block outgrows a 16 KiB segment, so every
/// two-block stream rolls a segment inside its batch.
fn churned_sharded_config() -> FlConfig {
    let mut config = sharded_config();
    config.rounds = 3;
    config.dropout_schedule = vec![(0, vec![1]), (2, vec![2, 5])];
    config
}

#[test]
fn write_behind_tail_leaves_the_bytes_of_a_synchronous_one() {
    let config = churned_sharded_config();
    let durability = durability_config(2);
    let persisted = |cap: usize, pipelined: bool| {
        let dir = TestDir::new("write-behind");
        par::set_max_threads(cap);
        let mut protocol = FlProtocol::new(config.clone()).expect("valid config");
        protocol
            .persist_to(dir.path(), durability)
            .expect("fresh dir attaches");
        if pipelined {
            protocol.run()
        } else {
            protocol.run_sequential()
        }
        .expect("honest run");
        par::set_max_threads(0);
        let live = protocol
            .engine()
            .store_of(0)
            .expect("miner 0")
            .blocks_from(0);
        (dir_files(dir.path()), live)
    };
    let guard = THREAD_CAP.lock().unwrap_or_else(|e| e.into_inner());
    let (files, live) = persisted(1, true);
    assert_eq!(persisted(2, true).0, files, "run() at cap 2 ≠ cap 1");
    assert_eq!(persisted(1, false).0, files, "run_sequential() ≠ run()");
    drop(guard);

    // The segments are those of a store fed the live chain block by block.
    let singly = TestDir::new("write-behind-singly");
    let (mut store, _) = DurableStore::<FlCall>::open(singly.path(), durability).expect("opens");
    for block in &live {
        store.append(block.clone()).expect("the live chain extends");
    }
    drop(store);
    let segments = |files: &[(String, Vec<u8>)]| -> Vec<(String, Vec<u8>)> {
        files
            .iter()
            .filter(|(name, _)| name.ends_with(".seg"))
            .cloned()
            .collect()
    };
    let wal = segments(&files);
    assert!(wal.len() > live.len() / 2, "streams must roll segments");
    assert_eq!(wal, segments(&dir_files(singly.path())));

    // Snapshots sit exactly at the stream ends where the cadence fires:
    // a stream ends after the setup block and after every block that
    // carries an `EvaluateRound` (a round's last cohort, a recovery).
    let stream_ends: Vec<u64> = std::iter::once(1)
        .chain(live.iter().filter_map(|block| {
            block
                .txs
                .iter()
                .any(|tx| matches!(tx.call, FlCall::EvaluateRound { .. }))
                .then_some(block.header.height + 1)
        }))
        .collect();
    assert_eq!(stream_ends, [1, 3, 4, 6, 8, 9]);
    let mut last = 0;
    let mut expected = Vec::new();
    for end in stream_ends {
        if end >= last + durability.snapshot_every {
            expected.push(format!("snap-{end:08}.bin"));
            last = end;
        }
    }
    let snapshots: Vec<String> = files
        .iter()
        .map(|(name, _)| name.clone())
        .filter(|name| name.starts_with("snap-"))
        .collect();
    assert_eq!(snapshots, expected);
}

#[test]
fn a_directory_holding_another_chain_stops_the_run() {
    // Chain A: two blocks from one world.
    let dir = TestDir::new("foreign-chain");
    let mut first = FlProtocol::new(FlConfig::quick_demo()).expect("valid config");
    first
        .persist_to(dir.path(), durability_config(1))
        .expect("fresh dir attaches");
    first.run().expect("honest run");
    let chain_a = first.engine().store_of(0).expect("miner 0").blocks_from(0);
    let on_disk = dir_files(dir.path());

    // Chain B, from another world, grows past A's height: its block 2
    // does not extend A's tip.
    let mut config = FlConfig::quick_demo();
    config.world_seed += 1;
    config.rounds = 3;
    let mut second = FlProtocol::new(config).expect("valid config");
    second
        .persist_to(dir.path(), durability_config(1))
        .expect("B's empty chain is a prefix of anything");
    match second.run() {
        Err(ProtocolError::Durability(DurabilityError::Rejected(_))) => {}
        other => panic!("expected Durability(Rejected), got {other:?}"),
    }

    // The writer is joined and wrote nothing: the directory still holds A.
    assert_eq!(dir_files(dir.path()), on_disk);
    let (reopened, _) =
        DurableStore::<FlCall>::open(dir.path(), durability_config(1)).expect("reopens");
    assert_eq!(reopened.store().blocks_from(0), chain_a);
    assert_eq!(
        reopened.store().tip_digest(),
        first.engine().store_of(0).expect("miner 0").tip_digest()
    );
}

#[test]
fn a_persisted_run_stages_its_final_flush_and_a_memory_run_none() {
    // Two cohorts of four owners, run sequentially: its stages are
    // disjoint spans of the run, the final flush among them.
    let mut config = FlConfig::quick_demo();
    config.num_owners = 8;
    config.num_groups = 2;
    config.num_cohorts = 2;
    let dir = TestDir::new("final-flush");
    let mut persisted = FlProtocol::new(config.clone()).expect("valid config");
    persisted
        .persist_to(dir.path(), durability_config(1))
        .expect("fresh directory");
    let report = persisted.run_sequential().expect("run");
    assert!(report.stages.flush > 0.0, "{:?}", report.stages);
    assert!(
        report.stages.total() <= report.wall_seconds,
        "{:?} over {} s",
        report.stages,
        report.wall_seconds
    );

    let mut memory = FlProtocol::new(config).expect("valid config");
    let report = memory.run_sequential().expect("run");
    assert_eq!(report.stages.flush, 0.0, "{:?}", report.stages);
    assert!(report.stages.total() <= report.wall_seconds);
}
