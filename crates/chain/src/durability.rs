//! Durable chain store: the segmented log plus periodic state snapshots,
//! with crash recovery as a first-class, fault-injected code path.
//!
//! # Durability contract
//!
//! A [`DurableStore`] wraps the in-memory [`ChainStore`] with a
//! write-ahead discipline over [`crate::log::SegmentedLog`]:
//!
//! 1. [`DurableStore::append_batch`] validates each block against the
//!    in-memory chain, writes its canonical encoding as one log record
//!    of its own, and flushes (fsync-equivalent) once, after the last
//!    record, before returning; [`DurableStore::append`] is its
//!    one-block case. **Every block of an append that returned `Ok`
//!    survives any later crash.** A batch is one flush, not one record:
//!    the framing is per block, so the bytes on disk are those of
//!    one-by-one appends, and a crash inside a batch leaves a clean
//!    prefix of whole blocks — possibly a prefix of the batch, never a
//!    part of a block.
//! 2. [`DurableStore::write_snapshot`] persists a caller-provided
//!    contract-state blob bound to the current tip (height + tip header
//!    digest), CRC-framed in its own file. Snapshots are an
//!    *acceleration*, never a source of truth: the log remains complete
//!    from genesis, and recovery validates a snapshot against the block
//!    it claims to summarize before trusting it.
//! 3. [`DurableStore::open`] recovers from arbitrary crash states: it
//!    truncates a torn tail record (delegated to the log), replays every
//!    surviving block through the same structural validation as a live
//!    append, and selects the newest snapshot whose CRC, decoding, and
//!    tip-digest binding all check out — silently falling back to older
//!    snapshots or genesis when the newest is torn or stale.
//!
//! The guarantee pinned by the crash-matrix tests
//! (`crates/chain/tests/crash_matrix.rs`): after a crash at **any**
//! injection point, the reopened chain is bit-identical to a clean
//! prefix of the pre-crash chain — never divergent, never reordered,
//! never a mix of old and new state.
//!
//! What this layer does *not* do is re-execute transactions: state-root
//! verification by re-execution needs the contract, which lives a layer
//! up (`fedchain::audit::fast_sync` drives it using the snapshot blob
//! and the replayed blocks returned here).
//!
//! # Crash injection
//!
//! [`CrashPoint`] names the places a real process dies relative to the
//! two durability boundaries (record flush, snapshot write); a
//! [`CrashPlan`] arms one of them to fire on the n-th operation. After
//! an injected crash every method returns
//! [`DurabilityError::Crashed`] — the only way forward is to reopen the
//! directory, exactly like a restarted process.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::block::Block;
use crate::codec::{Decode, DecodeError, Encode};
use crate::hash::Hash32;
use crate::log::{
    crc32, split_frame_header, LogConfig, LogError, SegmentedLog, TornTail, RECORD_HEADER_BYTES,
};
use crate::store::{ChainStore, StoreError};

const SNAPSHOT_PREFIX: &str = "snap-";
const SNAPSHOT_SUFFIX: &str = ".bin";

/// Configuration for a [`DurableStore`].
#[derive(Debug, Clone, Copy)]
pub struct DurabilityConfig {
    /// Segmented-log configuration.
    pub log: LogConfig,
    /// Suggested snapshot cadence in blocks, consulted by
    /// [`Self::snapshot_due`]. Snapshots are caller-driven (the caller
    /// owns the state blob), so this is advisory.
    pub snapshot_every: u64,
}

impl DurabilityConfig {
    /// The snapshot cadence rule: a chain of `height` blocks whose newest
    /// snapshot sits at `last_snapshot_height` (0 for none) is due for
    /// one when it is non-empty and `snapshot_every` blocks past it.
    /// [`DurableStore::snapshot_due`] asks it about the store itself; a
    /// caller that queues writes ahead of the store asks it about the
    /// heights it queued.
    pub fn snapshot_due(&self, height: u64, last_snapshot_height: u64) -> bool {
        height > 0 && height >= last_snapshot_height.saturating_add(self.snapshot_every)
    }
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            log: LogConfig::default(),
            snapshot_every: 8,
        }
    }
}

/// Where an injected crash fires, relative to the durability boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Mid-write of a block record: a strict prefix of the framed record
    /// reaches the segment (a torn write), then the process dies. The
    /// records buffered ahead of it in the same batch are written whole.
    TornRecord,
    /// After the record is buffered but before the flush: the block is
    /// lost entirely, and with it every earlier block of its batch that
    /// no flush has covered yet; on-disk state is exactly the previous
    /// flush (the end of the previous append, or a segment roll inside
    /// this batch).
    BeforeFlush,
    /// After the record is flushed (the block *is* durable) but before
    /// any snapshot could be written: recovery must work from an older
    /// or absent snapshot.
    AfterFlushBeforeSnapshot,
    /// Mid-write of a snapshot file: a strict prefix of the framed
    /// snapshot reaches disk; recovery must reject it and fall back.
    TornSnapshot,
}

/// Arms a [`CrashPoint`] to fire on the n-th operation (0-based):
/// appended blocks (not batches) for the three append-path points,
/// snapshot writes for [`CrashPoint::TornSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Where to crash.
    pub point: CrashPoint,
    /// Which operation (0-based count since this handle opened) to
    /// crash on.
    pub at: u64,
}

/// Errors from the durable store.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// The underlying segmented log failed.
    Log(LogError),
    /// A flushed, CRC-valid record did not decode as a block. A crash
    /// cannot produce this (torn bytes fail the CRC first), so it means
    /// tampering or a foreign file — recovery refuses the directory.
    UndecodableRecord {
        /// Index of the record in append order.
        record: usize,
        /// The decode failure.
        error: DecodeError,
    },
    /// A flushed record decoded as a block that does not extend the
    /// chain (bad parent link, height, or transaction root). Same
    /// verdict as [`Self::UndecodableRecord`]: not a crash artifact.
    InvalidBlock {
        /// Index of the record in append order.
        record: usize,
        /// The structural failure.
        error: StoreError,
    },
    /// A live append was rejected by the chain's validation (the block
    /// does not extend the current tip). Nothing was written.
    Rejected(StoreError),
    /// Snapshot file I/O failed; the context names the operation.
    SnapshotIo {
        /// Rendered operation, path, and OS error.
        context: String,
    },
    /// A snapshot was asked for before any block was appended: there is
    /// no tip to bind it to. Nothing was written.
    EmptyChainSnapshot,
    /// The handle was killed by an injected crash; reopen to recover.
    Crashed,
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Log(e) => write!(f, "{e}"),
            Self::UndecodableRecord { record, error } => {
                write!(f, "record {record} is CRC-valid but undecodable: {error}")
            }
            Self::InvalidBlock { record, error } => {
                write!(f, "record {record} does not extend the chain: {error}")
            }
            Self::Rejected(e) => write!(f, "append rejected: {e}"),
            Self::SnapshotIo { context } => write!(f, "snapshot I/O: {context}"),
            Self::EmptyChainSnapshot => write!(f, "cannot snapshot an empty chain"),
            Self::Crashed => write!(f, "durable store crashed (injected fault)"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<LogError> for DurabilityError {
    fn from(e: LogError) -> Self {
        match e {
            LogError::Crashed => Self::Crashed,
            other => Self::Log(other),
        }
    }
}

/// A state snapshot recovered from (or written to) disk: the contract
/// state blob bound to the block that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Chain height the snapshot summarizes (number of executed blocks;
    /// the state is the one *after* block `height - 1`).
    pub height: u64,
    /// Digest of block `height - 1`'s header — binds the blob to one
    /// specific chain so a snapshot cannot be replayed across forks.
    pub tip_digest: Hash32,
    /// Opaque caller-provided state encoding.
    pub state: Vec<u8>,
}

/// What [`DurableStore::open`] found and repaired.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Blocks replayed from the log.
    pub blocks: u64,
    /// The torn tail record the log truncated, if any.
    pub truncated: Option<TornTail>,
    /// The newest snapshot that passed CRC, decode, and tip-digest
    /// validation, if any.
    pub snapshot: Option<Snapshot>,
    /// Snapshot files that were present but failed validation (torn,
    /// corrupt, or stale relative to the recovered chain).
    pub snapshots_rejected: usize,
}

/// A [`ChainStore`] whose appends are write-ahead logged and whose state
/// can be snapshotted — see the [module docs](self) for the contract.
#[derive(Debug)]
pub struct DurableStore<C> {
    store: ChainStore<C>,
    log: SegmentedLog,
    dir: PathBuf,
    config: DurabilityConfig,
    last_snapshot_height: u64,
    appends: u64,
    snapshots: u64,
    plan: Option<CrashPlan>,
    crashed: bool,
}

impl<C: Encode + Decode + Clone> DurableStore<C> {
    /// Opens (or creates) a durable chain in `dir`, recovering whatever
    /// a previous process — cleanly exited or crashed — left behind.
    pub fn open(
        dir: impl Into<PathBuf>,
        config: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let dir = dir.into();
        let (log, recovered) = SegmentedLog::open(&dir, config.log)?;

        let store: ChainStore<C> = ChainStore::new();
        for (record, payload) in recovered.records.iter().enumerate() {
            let block = Block::<C>::decode(payload)
                .map_err(|error| DurabilityError::UndecodableRecord { record, error })?;
            store
                .append(block)
                .map_err(|error| DurabilityError::InvalidBlock { record, error })?;
        }

        let (snapshot, snapshots_rejected) = load_best_snapshot(&dir, &store)?;
        let last_snapshot_height = snapshot.as_ref().map_or(0, |s| s.height);
        let report = RecoveryReport {
            blocks: store.height(),
            truncated: recovered.truncated,
            snapshot,
            snapshots_rejected,
        };
        Ok((
            Self {
                store,
                log,
                dir,
                config,
                last_snapshot_height,
                appends: 0,
                snapshots: 0,
                plan: None,
                crashed: false,
            },
            report,
        ))
    }

    /// The recovered/live chain. All [`ChainStore`] reads (`height`,
    /// `block_at`, `verify_chain`, `state_roots`, …) go through here.
    pub fn store(&self) -> &ChainStore<C> {
        &self.store
    }

    /// The directory holding log segments and snapshots.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Arms a crash plan; the next matching operation dies at the chosen
    /// [`CrashPoint`].
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.plan = Some(plan);
    }

    /// True once an injected crash has killed this handle.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Validates `block` against the chain, write-ahead logs it, and
    /// flushes. On `Ok`, the block is durable. The one-block case of
    /// [`Self::append_batch`].
    pub fn append(&mut self, block: impl Into<Arc<Block<C>>>) -> Result<(), DurabilityError> {
        self.append_batch([block.into()])
    }

    /// Validates each block against the chain in turn, write-ahead logs
    /// it as its own record, and flushes once after the last. On `Ok`,
    /// every block is durable.
    ///
    /// A block that does not extend the chain ends the batch: the blocks
    /// before it are flushed, it and the rest are dropped, and the error
    /// names the failure — what appending them one by one would leave.
    pub fn append_batch(
        &mut self,
        blocks: impl IntoIterator<Item = Arc<Block<C>>>,
    ) -> Result<(), DurabilityError> {
        self.check_alive()?;
        let mut encoded = Vec::new();
        for block in blocks {
            // Validate (and stage in memory) first: an invalid block must
            // not reach the log at all.
            if let Err(rejected) = self.store.append(Arc::clone(&block)) {
                self.log.flush()?;
                return Err(DurabilityError::Rejected(rejected));
            }
            encoded.clear();
            block.encode_to(&mut encoded);
            self.log.append(&encoded)?;

            let fire = self
                .plan
                .filter(|p| p.point != CrashPoint::TornSnapshot && p.at == self.appends);
            self.appends += 1;
            match fire.map(|p| p.point) {
                Some(CrashPoint::BeforeFlush) => {
                    // Nothing buffered since the last flush reaches disk.
                    self.log.crash();
                    return self.die();
                }
                Some(CrashPoint::TornRecord) => {
                    // Persist the records buffered before this one, its
                    // frame header, and half its payload.
                    let keep = self.log.pending_bytes() - encoded.len().div_ceil(2);
                    self.log.crash_torn(keep)?;
                    return self.die();
                }
                Some(CrashPoint::AfterFlushBeforeSnapshot) => {
                    self.log.flush()?;
                    self.log.crash();
                    return self.die();
                }
                _ => {}
            }
        }
        self.log.flush()?;
        Ok(())
    }

    /// The configuration this store was opened with.
    pub fn config(&self) -> DurabilityConfig {
        self.config
    }

    /// Height of the newest snapshot written through this handle or
    /// recovered at [`Self::open`]; 0 when there is none.
    pub fn last_snapshot_height(&self) -> u64 {
        self.last_snapshot_height
    }

    /// True when the advisory snapshot cadence
    /// ([`DurabilityConfig::snapshot_due`]) says the caller should
    /// [`Self::write_snapshot`] now.
    pub fn snapshot_due(&self) -> bool {
        self.config
            .snapshot_due(self.store.height(), self.last_snapshot_height)
    }

    /// Persists `state` as a snapshot bound to the current tip. The blob
    /// is opaque to this layer; the caller must be able to rebuild its
    /// state machine from it (and should verify the rebuild against the
    /// committed state root, as `fedchain::audit::fast_sync` does).
    pub fn write_snapshot(&mut self, state: &[u8]) -> Result<(), DurabilityError> {
        self.check_alive()?;
        let height = self.store.height();
        if height == 0 {
            return Err(DurabilityError::EmptyChainSnapshot);
        }
        // The payload `(height, tip digest, state)` is encoded in place
        // behind its frame header — one buffer the size of the file,
        // 8 + 32 + 8 bytes of height, digest and length prefix before the
        // state — with the state's bytes copied whole, as a byte slice
        // encodes.
        let mut framed = Vec::with_capacity(RECORD_HEADER_BYTES + 48 + state.len());
        framed.resize(RECORD_HEADER_BYTES, 0);
        (height, self.store.tip_digest(), state.len()).encode_to(&mut framed);
        framed.extend_from_slice(state);
        let (header, payload) = framed.split_at_mut(RECORD_HEADER_BYTES);
        header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
        let payload_len = payload.len();

        let fire = self
            .plan
            .filter(|p| p.point == CrashPoint::TornSnapshot && p.at == self.snapshots);
        self.snapshots += 1;
        // Deliberately written in place (no temp-file + rename): a torn
        // snapshot must be *possible* so recovery's CRC validation is
        // load-bearing, and the log — not the snapshot — is the source
        // of truth.
        let keep = if fire.is_some() {
            RECORD_HEADER_BYTES + payload_len / 2
        } else {
            framed.len()
        };
        let path = snapshot_path(&self.dir, height);
        let io = |op: &str, e: &std::io::Error| DurabilityError::SnapshotIo {
            context: format!("{op} {}: {e}", path.display()),
        };
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io("open", &e))?;
        file.write_all(&framed[..keep])
            .map_err(|e| io("write", &e))?;
        file.sync_all().map_err(|e| io("sync", &e))?;
        if fire.is_some() {
            return self.die();
        }
        self.last_snapshot_height = height;
        Ok(())
    }

    fn die(&mut self) -> Result<(), DurabilityError> {
        self.crashed = true;
        Err(DurabilityError::Crashed)
    }

    fn check_alive(&self) -> Result<(), DurabilityError> {
        if self.crashed {
            return Err(DurabilityError::Crashed);
        }
        Ok(())
    }
}

fn snapshot_path(dir: &Path, height: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{height:08}{SNAPSHOT_SUFFIX}"))
}

/// Scans `dir` for snapshot files and returns the newest one that is
/// CRC-valid, decodable, and consistent with the recovered chain —
/// plus how many candidates were rejected.
fn load_best_snapshot<C: Encode + Clone>(
    dir: &Path,
    store: &ChainStore<C>,
) -> Result<(Option<Snapshot>, usize), DurabilityError> {
    let io = |op: &str, path: &Path, e: &std::io::Error| DurabilityError::SnapshotIo {
        context: format!("{op} {}: {e}", path.display()),
    };
    let mut candidates: Vec<PathBuf> = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| io("read dir", dir, &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| io("read dir entry", dir, &e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with(SNAPSHOT_PREFIX) && name.ends_with(SNAPSHOT_SUFFIX) {
            candidates.push(entry.path());
        }
    }
    // Name embeds the zero-padded height, so lexicographic order is
    // height order; walk newest-first.
    candidates.sort();
    candidates.reverse();

    let mut rejected = 0usize;
    for path in candidates {
        let bytes = fs::read(&path).map_err(|e| io("read snapshot", &path, &e))?;
        match validate_snapshot(&bytes, store) {
            Some(snapshot) => return Ok((Some(snapshot), rejected)),
            None => rejected += 1,
        }
    }
    Ok((None, rejected))
}

/// Validates one snapshot file's bytes: frame intact, CRC matches,
/// payload decodes, height within the chain, digest binds to the block
/// it names. Any failure makes the snapshot unusable (torn or stale),
/// never fatal — the log can always rebuild from genesis.
fn validate_snapshot<C: Encode + Clone>(bytes: &[u8], store: &ChainStore<C>) -> Option<Snapshot> {
    let (len, crc, payload) = split_frame_header(bytes)?;
    if payload.len() != len || crc32(payload) != crc {
        return None;
    }
    let (height, tip_digest, state) = <(u64, Hash32, Vec<u8>)>::decode(payload).ok()?;
    if height == 0 || height > store.height() {
        return None;
    }
    let bound = store.block_at(height - 1)?.header.digest();
    if bound != tip_digest {
        return None;
    }
    Some(Snapshot {
        height,
        tip_digest,
        state,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::testdir::TestDir;
    use crate::tx::Transaction;

    fn next_block(store: &ChainStore<u64>, calls: &[u64]) -> Block<u64> {
        let txs: Vec<Transaction<u64>> = calls
            .iter()
            .enumerate()
            .map(|(i, &c)| Transaction::new(0, store.height() * 10 + i as u64, c))
            .collect();
        Block::assemble(
            store.height(),
            store.tip_digest(),
            Hash32::of_bytes(b"state"),
            0,
            store.height(),
            txs,
        )
    }

    fn open(dir: &TestDir) -> (DurableStore<u64>, RecoveryReport) {
        DurableStore::open(dir.path(), DurabilityConfig::default()).unwrap()
    }

    #[test]
    fn append_reopen_roundtrip_is_bit_identical() {
        let dir = TestDir::new("dur-roundtrip");
        let (mut durable, _) = open(&dir);
        let mut blocks = Vec::new();
        for i in 0..5u64 {
            let block = next_block(durable.store(), &[i, i + 100]);
            durable.append(block.clone()).unwrap();
            blocks.push(block);
        }
        let roots = durable.store().state_roots();
        drop(durable);

        let (reopened, report) = open(&dir);
        assert_eq!(report.blocks, 5);
        assert!(report.truncated.is_none());
        assert_eq!(reopened.store().state_roots(), roots);
        for (h, expect) in blocks.iter().enumerate() {
            assert_eq!(&reopened.store().block_at(h as u64).unwrap(), expect);
        }
        assert_eq!(reopened.store().verify_chain(), Ok(()));
    }

    #[test]
    fn invalid_block_rejected_before_logging() {
        let dir = TestDir::new("dur-reject");
        let (mut durable, _) = open(&dir);
        let mut bad = next_block(durable.store(), &[1]);
        bad.header.height = 9;
        assert!(matches!(
            durable.append(bad),
            Err(DurabilityError::Rejected(StoreError::HeightMismatch { .. }))
        ));
        // Nothing reached disk; the handle is still alive.
        assert!(!durable.crashed());
        let good = next_block(durable.store(), &[1]);
        durable.append(good).unwrap();
        drop(durable);
        let (_, report) = open(&dir);
        assert_eq!(report.blocks, 1);
    }

    fn segment_bytes(dir: &TestDir) -> Vec<(String, Vec<u8>)> {
        let mut segments: Vec<(String, Vec<u8>)> = fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, fs::read(&p).unwrap())
            })
            .collect();
        segments.sort();
        segments
    }

    #[test]
    fn batch_writes_the_bytes_of_one_by_one_appends() {
        // Small segments, so the batch rolls more than once.
        let config = DurabilityConfig {
            log: LogConfig { segment_bytes: 256 },
            snapshot_every: u64::MAX,
        };
        let chain: ChainStore<u64> = ChainStore::new();
        for i in 0..9u64 {
            chain.append(next_block(&chain, &[i, i + 1])).unwrap();
        }
        let singly = TestDir::new("dur-batch-singly");
        let (mut durable, _) = DurableStore::<u64>::open(singly.path(), config).unwrap();
        for block in chain.blocks_from(0) {
            durable.append(block).unwrap();
        }
        let batched = TestDir::new("dur-batch-batched");
        let (mut durable, _) = DurableStore::<u64>::open(batched.path(), config).unwrap();
        durable.append_batch(chain.blocks_from(0)).unwrap();
        assert_eq!(durable.store().height(), 9);
        drop(durable);

        let segments = segment_bytes(&batched);
        assert!(segments.len() > 2, "the batch must straddle segment rolls");
        assert_eq!(segments, segment_bytes(&singly));
    }

    #[test]
    fn invalid_block_ends_a_batch_after_flushing_its_prefix() {
        let dir = TestDir::new("dur-batch-reject");
        let (mut durable, _) = open(&dir);
        let chain: ChainStore<u64> = ChainStore::new();
        for i in 0..4u64 {
            chain.append(next_block(&chain, &[i])).unwrap();
        }
        let mut batch = chain.blocks_from(0);
        Arc::make_mut(&mut batch[2]).header.height = 9;
        assert!(matches!(
            durable.append_batch(batch),
            Err(DurabilityError::Rejected(StoreError::HeightMismatch { .. }))
        ));
        // Blocks 0 and 1 are staged and durable, 2 and 3 are neither.
        assert!(!durable.crashed());
        assert_eq!(durable.store().height(), 2);
        drop(durable);
        let (mut durable, report) = open(&dir);
        assert_eq!(report.blocks, 2);
        durable.append_batch(chain.blocks_from(2)).unwrap();
        assert_eq!(durable.store().tip_digest(), chain.tip_digest());
    }

    #[test]
    fn snapshot_roundtrips_and_binds_to_tip() {
        let dir = TestDir::new("dur-snap");
        let (mut durable, _) = open(&dir);
        for i in 0..3u64 {
            let block = next_block(durable.store(), &[i]);
            durable.append(block).unwrap();
        }
        durable.write_snapshot(b"contract-state-at-3").unwrap();
        let tip = durable.store().tip_digest();
        drop(durable);

        // The file is the frame of the encoded `(height, tip, state)`.
        let payload = (3u64, tip, b"contract-state-at-3".to_vec()).encode();
        let mut framed = (payload.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        assert_eq!(fs::read(snapshot_path(dir.path(), 3)).unwrap(), framed);

        let (_, report) = open(&dir);
        let snap = report.snapshot.expect("snapshot must be recovered");
        assert_eq!(snap.height, 3);
        assert_eq!(snap.tip_digest, tip);
        assert_eq!(snap.state, b"contract-state-at-3");
        assert_eq!(report.snapshots_rejected, 0);
    }

    #[test]
    fn snapshot_of_an_empty_chain_is_a_typed_error_and_writes_nothing() {
        let dir = TestDir::new("dur-snap-empty");
        let (mut durable, _) = open(&dir);
        let files = || std::fs::read_dir(dir.path()).unwrap().count();
        let before = files();
        assert_eq!(
            durable.write_snapshot(b"state-of-nothing"),
            Err(DurabilityError::EmptyChainSnapshot)
        );
        assert_eq!(files(), before);
        // The handle is unharmed: the first block and its snapshot go through.
        assert!(!durable.crashed());
        let block = next_block(durable.store(), &[1]);
        durable.append(block).unwrap();
        durable.write_snapshot(b"state-at-1").unwrap();
        drop(durable);
        let (_, report) = open(&dir);
        assert_eq!(report.snapshot.unwrap().state, b"state-at-1");
        assert_eq!(report.snapshots_rejected, 0);
    }

    #[test]
    fn newest_valid_snapshot_wins() {
        let dir = TestDir::new("dur-snap-newest");
        let (mut durable, _) = open(&dir);
        for i in 0..4u64 {
            let block = next_block(durable.store(), &[i]);
            durable.append(block).unwrap();
            durable
                .write_snapshot(format!("state-{}", i + 1).as_bytes())
                .unwrap();
        }
        drop(durable);
        let (_, report) = open(&dir);
        assert_eq!(report.snapshot.unwrap().state, b"state-4");
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_older() {
        let dir = TestDir::new("dur-snap-corrupt");
        let (mut durable, _) = open(&dir);
        for i in 0..2u64 {
            let block = next_block(durable.store(), &[i]);
            durable.append(block).unwrap();
            durable
                .write_snapshot(format!("state-{}", i + 1).as_bytes())
                .unwrap();
        }
        drop(durable);
        // Flip a byte in the newest snapshot: CRC rejects it.
        let path = snapshot_path(dir.path(), 2);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let (_, report) = open(&dir);
        let snap = report.snapshot.expect("older snapshot survives");
        assert_eq!(snap.state, b"state-1");
        assert_eq!(report.snapshots_rejected, 1);
    }

    #[test]
    fn snapshot_cut_inside_its_header_falls_back_to_older() {
        let dir = TestDir::new("dur-snap-short");
        let (mut durable, _) = open(&dir);
        for i in 0..2u64 {
            let block = next_block(durable.store(), &[i]);
            durable.append(block).unwrap();
            durable
                .write_snapshot(format!("state-{}", i + 1).as_bytes())
                .unwrap();
        }
        drop(durable);
        // Empty, inside the length field, inside the CRC, header only.
        let path = snapshot_path(dir.path(), 2);
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 3, 6, RECORD_HEADER_BYTES] {
            fs::write(&path, &bytes[..keep]).unwrap();
            let (_, report) = open(&dir);
            let snap = report.snapshot.expect("older snapshot survives");
            assert_eq!(snap.state, b"state-1", "cut at {keep}");
            assert_eq!(report.snapshots_rejected, 1, "cut at {keep}");
        }
    }

    #[test]
    fn stale_snapshot_from_a_different_chain_rejected() {
        // Build chain A with a snapshot, wipe the log but keep the
        // snapshot, rebuild a different chain B: the snapshot's tip
        // digest no longer binds and must be rejected.
        let dir = TestDir::new("dur-snap-stale");
        let (mut durable, _) = open(&dir);
        let block = next_block(durable.store(), &[1]);
        durable.append(block).unwrap();
        durable.write_snapshot(b"chain-a-state").unwrap();
        drop(durable);
        for entry in fs::read_dir(dir.path()).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "seg") {
                fs::remove_file(path).unwrap();
            }
        }
        let (mut durable, report) = open(&dir);
        assert_eq!(report.blocks, 0);
        assert!(
            report.snapshot.is_none(),
            "unbound snapshot must be rejected"
        );
        assert_eq!(report.snapshots_rejected, 1);
        // Different chain: different first block contents.
        let block = next_block(durable.store(), &[999]);
        durable.append(block).unwrap();
        drop(durable);
        let (_, report) = open(&dir);
        assert!(report.snapshot.is_none());
        assert_eq!(report.snapshots_rejected, 1);
    }

    #[test]
    fn snapshot_cadence_is_advisory() {
        let dir = TestDir::new("dur-cadence");
        let config = DurabilityConfig {
            snapshot_every: 2,
            ..DurabilityConfig::default()
        };
        let (mut durable, _) = DurableStore::<u64>::open(dir.path(), config).unwrap();
        assert!(!durable.snapshot_due(), "empty chain never due");
        let block = next_block(durable.store(), &[1]);
        durable.append(block).unwrap();
        assert!(!durable.snapshot_due());
        let block = next_block(durable.store(), &[2]);
        durable.append(block).unwrap();
        assert!(durable.snapshot_due());
        durable.write_snapshot(b"s").unwrap();
        assert!(!durable.snapshot_due(), "cadence resets after a snapshot");
        assert_eq!(durable.last_snapshot_height(), 2);
    }

    #[test]
    fn cadence_rule_over_heights() {
        let every = |snapshot_every| DurabilityConfig {
            snapshot_every,
            ..DurabilityConfig::default()
        };
        assert!(!every(2).snapshot_due(0, 0), "empty chain never due");
        assert!(every(1).snapshot_due(1, 0));
        assert!(!every(2).snapshot_due(3, 2));
        assert!(every(2).snapshot_due(4, 2));
        assert!(
            every(2).snapshot_due(5, 2),
            "a stream may jump past the mark"
        );
        // No cadence: never due, and no overflow past a recovered snapshot.
        assert!(!every(u64::MAX).snapshot_due(u64::MAX - 1, 7));
    }

    #[test]
    fn crashed_handle_refuses_everything() {
        let dir = TestDir::new("dur-dead");
        let (mut durable, _) = open(&dir);
        durable.set_crash_plan(CrashPlan {
            point: CrashPoint::BeforeFlush,
            at: 0,
        });
        let block = next_block(durable.store(), &[1]);
        assert_eq!(durable.append(block.clone()), Err(DurabilityError::Crashed));
        assert!(durable.crashed());
        assert_eq!(durable.append(block), Err(DurabilityError::Crashed));
        assert_eq!(durable.write_snapshot(b"s"), Err(DurabilityError::Crashed));
    }

    #[test]
    fn tampered_log_record_refused_with_decode_context() {
        // A CRC-valid record that is not a block encoding is tampering,
        // not a crash: open must refuse, not truncate.
        let dir = TestDir::new("dur-tamper");
        let (mut log, _) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        log.append(b"not a block").unwrap();
        log.flush().unwrap();
        drop(log);
        match DurableStore::<u64>::open(dir.path(), DurabilityConfig::default()) {
            Err(DurabilityError::UndecodableRecord { record: 0, .. }) => {}
            other => panic!("expected UndecodableRecord, got {other:?}"),
        }
    }

    #[test]
    fn non_extending_logged_block_refused() {
        // Two structurally valid blocks logged out of order: recovery
        // must refuse rather than guess at a reordering.
        let dir = TestDir::new("dur-order");
        let scratch: ChainStore<u64> = ChainStore::new();
        let b0 = next_block(&scratch, &[1]);
        scratch.append(b0).unwrap();
        let b1 = next_block(&scratch, &[2]);
        let (mut log, _) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        log.append(&b1.encode()).unwrap(); // starts at height 1: cannot extend empty chain
        log.flush().unwrap();
        drop(log);
        match DurableStore::<u64>::open(dir.path(), DurabilityConfig::default()) {
            Err(DurabilityError::InvalidBlock { record: 0, .. }) => {}
            other => panic!("expected InvalidBlock, got {other:?}"),
        }
    }

    #[test]
    fn errors_render() {
        let e = DurabilityError::Rejected(StoreError::TxRootMismatch);
        assert!(e.to_string().contains("append rejected"));
        assert!(DurabilityError::Crashed.to_string().contains("crashed"));
        let e = DurabilityError::SnapshotIo {
            context: "open /x: denied".into(),
        };
        assert!(e.to_string().contains("snapshot I/O"));
    }
}
