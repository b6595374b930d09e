//! Append-only segmented record log — the byte-level half of the
//! durable chain (see [`crate::durability`] for the block-level half).
//!
//! # Format
//!
//! A log is a directory of fixed-capacity segment files named
//! `wal-<id>.seg` with contiguous ids from 0. Each segment holds framed
//! records:
//!
//! ```text
//! ┌─────────────┬──────────────┬────────────┐
//! │ len: u32 LE │ crc32: u32 LE│  payload   │   … repeated
//! └─────────────┴──────────────┴────────────┘
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. A record never spans
//! segments: when a record would overflow the segment capacity, the
//! current segment is flushed and a new one is started (a record larger
//! than the capacity gets a segment to itself).
//!
//! # Durability contract
//!
//! [`SegmentedLog::append`] only *buffers* the framed record;
//! [`SegmentedLog::flush`] persists every buffered byte and issues an
//! fsync-equivalent (`File::sync_all`). The guarantee, pinned by the
//! crash-matrix tests:
//!
//! * records appended **and flushed** survive any later crash;
//! * records appended but **not flushed** may vanish entirely — a clean
//!   prefix of the log remains;
//! * a crash **during** the physical write (a torn write) leaves a
//!   partial final record, which [`SegmentedLog::open`] detects by
//!   framing/CRC and truncates — again leaving the clean prefix.
//!
//! Reopening therefore never yields a divergent log: the recovered
//! record sequence is always exactly the appended sequence up to some
//! flush boundary, never reordered or altered (a CRC-valid forgery of a
//! different payload is outside the crash model and surfaces at the
//! chain layer's structural and state-root checks instead).
//!
//! # Crash injection
//!
//! [`SegmentedLog::crash`] and [`SegmentedLog::crash_torn`] simulate a
//! process death at the two byte-level crash points (before the flush,
//! and mid-write). They exist for the crash-matrix tests — in the spirit
//! of the injected apply-time fault the commit-atomicity tests use — and
//! flip the log into a dead state where every later call returns
//! [`LogError::Crashed`].

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Bytes of framing per record: `len: u32` + `crc32: u32`.
pub const RECORD_HEADER_BYTES: usize = 8;

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".seg";

/// Slicing-by-8 tables of the reflected polynomial `0xEDB88320`, built
/// at compile time: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the register after byte `b` and `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected polynomial `0xEDB88320`), the classic WAL
/// record checksum, eight bytes a step: every record and snapshot is
/// summed twice (write, then open), and the byte-at-a-time walk's one
/// dependent table load per byte was a sixth of a small chain's audit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][(lo >> 8 & 0xff) as usize]
            ^ t[5][(lo >> 16 & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][(hi >> 8 & 0xff) as usize]
            ^ t[1][(hi >> 16 & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// Log configuration.
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Capacity of one segment file in bytes. Records never span
    /// segments; an oversized record gets its own segment.
    pub segment_bytes: usize,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
        }
    }
}

/// Errors from the segmented log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// An I/O operation failed; the context names the operation and path.
    Io {
        /// Rendered operation, path, and OS error.
        context: String,
    },
    /// The log bytes are corrupt beyond what crash recovery repairs
    /// (e.g. a bad record in the *middle* of the log, or a gap in the
    /// segment id sequence) — this is tampering or media failure, not a
    /// torn tail, and recovery refuses to guess.
    Corrupt {
        /// Segment id holding the corruption.
        segment: u64,
        /// Byte offset of the corrupt record inside the segment.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// The log was killed by an injected crash; every later operation on
    /// this handle fails. Reopen the directory to recover.
    Crashed,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io { context } => write!(f, "log I/O: {context}"),
            Self::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "log corrupt at segment {segment} offset {offset}: {reason}"
            ),
            Self::Crashed => write!(f, "log handle crashed (injected fault)"),
        }
    }
}

impl std::error::Error for LogError {}

fn io_err(op: &str, path: &Path, e: &std::io::Error) -> LogError {
    LogError::Io {
        context: format!("{op} {}: {e}", path.display()),
    }
}

/// Where (and why) recovery cut a torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment the tail was cut from.
    pub segment: u64,
    /// Byte offset the segment was truncated to.
    pub offset: u64,
    /// What made the tail record invalid.
    pub reason: TornReason,
}

/// How a tail record was detected as torn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornReason {
    /// Fewer than [`RECORD_HEADER_BYTES`] bytes of framing remained.
    PartialHeader,
    /// The frame promised more payload bytes than the segment holds.
    PartialPayload,
    /// The payload's CRC-32 did not match the frame.
    CrcMismatch,
}

/// What [`SegmentedLog::open`] recovered from disk.
#[derive(Debug, Clone)]
pub struct LogRecovery {
    /// Every valid record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// The torn tail that was detected and truncated, if any.
    pub truncated: Option<TornTail>,
}

/// An append-only segmented record log over a directory.
#[derive(Debug)]
pub struct SegmentedLog {
    dir: PathBuf,
    config: LogConfig,
    /// Id of the segment currently being appended to.
    segment_id: u64,
    /// Durable (flushed) bytes in the current segment.
    durable_len: u64,
    /// Framed bytes appended but not yet flushed. Never spans a segment
    /// boundary: `append` rolls segments *before* buffering.
    pending: Vec<u8>,
    /// The current segment, opened for appending by the first write to
    /// it and kept until the log rolls or dies.
    segment: Option<File>,
    /// Set by an injected crash; poisons every later operation.
    crashed: bool,
}

impl SegmentedLog {
    /// Opens (or creates) the log in `dir`, recovering its contents.
    ///
    /// Recovery walks the segments in id order, validates every record
    /// frame and CRC, and handles a torn tail — a partial or
    /// CRC-inconsistent final record in the final segment — by
    /// physically truncating it. Corruption anywhere else is refused
    /// with [`LogError::Corrupt`].
    pub fn open(
        dir: impl Into<PathBuf>,
        config: LogConfig,
    ) -> Result<(Self, LogRecovery), LogError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, &e))?;

        let mut segment_ids: Vec<u64> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("read dir", &dir, &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", &dir, &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(id) = name
                .strip_prefix(SEGMENT_PREFIX)
                .and_then(|s| s.strip_suffix(SEGMENT_SUFFIX))
                .and_then(|s| s.parse::<u64>().ok())
            {
                segment_ids.push(id);
            }
        }
        segment_ids.sort_unstable();
        for (expect, &id) in segment_ids.iter().enumerate() {
            if id != expect as u64 {
                return Err(LogError::Corrupt {
                    segment: expect as u64,
                    offset: 0,
                    reason: format!("segment {expect} missing (found {id})"),
                });
            }
        }

        let mut records = Vec::new();
        let mut truncated = None;
        let mut tail = (0u64, 0u64); // (segment id, durable len)
        for (i, &id) in segment_ids.iter().enumerate() {
            let is_last = i + 1 == segment_ids.len();
            let path = segment_path(&dir, id);
            let bytes = fs::read(&path).map_err(|e| io_err("read segment", &path, &e))?;
            let parsed = parse_segment(&bytes);
            for (_, payload) in &parsed.records {
                records.push(payload.to_vec());
            }
            match parsed.torn {
                None => {
                    tail = (id, bytes.len() as u64);
                }
                Some((offset, reason)) if is_last => {
                    // Torn tail: cut the partial record so the segment
                    // ends on a clean frame boundary.
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&path)
                        .map_err(|e| io_err("open segment for truncation", &path, &e))?;
                    file.set_len(offset)
                        .map_err(|e| io_err("truncate segment", &path, &e))?;
                    file.sync_all()
                        .map_err(|e| io_err("sync truncated segment", &path, &e))?;
                    truncated = Some(TornTail {
                        segment: id,
                        offset,
                        reason,
                    });
                    tail = (id, offset);
                }
                Some((offset, reason)) => {
                    // A bad record with later segments after it cannot be
                    // a crash artifact (segments are flushed before
                    // rolling): refuse to silently drop committed data.
                    return Err(LogError::Corrupt {
                        segment: id,
                        offset,
                        reason: format!("{reason:?} in a non-final segment"),
                    });
                }
            }
        }

        Ok((
            Self {
                dir,
                config,
                segment_id: tail.0,
                durable_len: tail.1,
                pending: Vec::new(),
                segment: None,
                crashed: false,
            },
            LogRecovery { records, truncated },
        ))
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Frames `payload` and buffers it for the next [`Self::flush`].
    /// Rolls to a new segment first when the record would overflow the
    /// current segment's capacity.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), LogError> {
        self.check_alive()?;
        let record_len = RECORD_HEADER_BYTES + payload.len();
        let used = self.durable_len as usize + self.pending.len();
        if used > 0 && used + record_len > self.config.segment_bytes {
            self.flush()?;
            self.segment = None;
            self.segment_id += 1;
            self.durable_len = 0;
        }
        self.pending
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending
            .extend_from_slice(&crc32(payload).to_le_bytes());
        self.pending.extend_from_slice(payload);
        Ok(())
    }

    /// Persists every buffered byte to the current segment and issues an
    /// fsync-equivalent. After `flush` returns, the appended records are
    /// durable under the crash model.
    pub fn flush(&mut self) -> Result<(), LogError> {
        self.check_alive()?;
        if self.pending.is_empty() {
            return Ok(());
        }
        self.write_synced(self.pending.len())?;
        self.durable_len += self.pending.len() as u64;
        self.pending.clear();
        Ok(())
    }

    /// Writes the first `len` buffered bytes to the current segment and
    /// syncs it.
    fn write_synced(&mut self, len: usize) -> Result<(), LogError> {
        let path = segment_path(&self.dir, self.segment_id);
        let file = match &mut self.segment {
            Some(file) => file,
            empty => empty.insert(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)
                    .map_err(|e| io_err("open segment", &path, &e))?,
            ),
        };
        file.write_all(&self.pending[..len])
            .map_err(|e| io_err("write segment", &path, &e))?;
        file.sync_all()
            .map_err(|e| io_err("sync segment", &path, &e))
    }

    /// Buffered bytes not yet flushed.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len()
    }

    /// Id of the segment currently being appended to.
    pub fn segment_id(&self) -> u64 {
        self.segment_id
    }

    /// Injected crash *before* the flush: every buffered byte is lost,
    /// the handle is dead. On-disk state is exactly the last flush.
    pub fn crash(&mut self) {
        self.pending.clear();
        self.segment = None;
        self.crashed = true;
    }

    /// Injected crash *during* the physical write (a torn write): only
    /// the first `persist` bytes of the buffer reach the segment, then
    /// the handle dies. Recovery must detect and truncate the partial
    /// record.
    pub fn crash_torn(&mut self, persist: usize) -> Result<(), LogError> {
        self.check_alive()?;
        self.write_synced(persist.min(self.pending.len()))?;
        self.crash();
        Ok(())
    }

    fn check_alive(&self) -> Result<(), LogError> {
        if self.crashed {
            return Err(LogError::Crashed);
        }
        Ok(())
    }
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{id:08}{SEGMENT_SUFFIX}"))
}

/// Splits the `len: u32 LE ‖ crc32: u32 LE` framing off the front of
/// `bytes`: the payload length, its CRC and everything after the header.
/// `None` when fewer than [`RECORD_HEADER_BYTES`] bytes are there.
pub(crate) fn split_frame_header(bytes: &[u8]) -> Option<(usize, u32, &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (crc, body) = rest.split_first_chunk::<4>()?;
    Some((
        u32::from_le_bytes(*len) as usize,
        u32::from_le_bytes(*crc),
        body,
    ))
}

/// One parsed segment: valid records plus an optional torn tail.
struct ParsedSegment<'a> {
    /// `(offset, payload)` of every valid record.
    records: Vec<(u64, &'a [u8])>,
    /// `(offset, reason)` where parsing stopped on an invalid record.
    torn: Option<(u64, TornReason)>,
}

fn parse_segment(bytes: &[u8]) -> ParsedSegment<'_> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some((len, crc, body)) = split_frame_header(&bytes[pos..]) else {
            return ParsedSegment {
                records,
                torn: Some((pos as u64, TornReason::PartialHeader)),
            };
        };
        let Some(payload) = body.get(..len) else {
            return ParsedSegment {
                records,
                torn: Some((pos as u64, TornReason::PartialPayload)),
            };
        };
        if crc32(payload) != crc {
            return ParsedSegment {
                records,
                torn: Some((pos as u64, TornReason::CrcMismatch)),
            };
        }
        records.push((pos as u64, payload));
        pos += RECORD_HEADER_BYTES + len;
    }
    ParsedSegment {
        records,
        torn: None,
    }
}

#[cfg(test)]
pub(crate) mod testdir {
    //! Unique scratch directories for filesystem tests, removed on drop.

    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    /// A scratch directory under the OS temp dir, unique per test.
    pub struct TestDir(PathBuf);

    impl TestDir {
        /// Creates a fresh directory tagged with the process id and a
        /// per-process counter.
        pub fn new(tag: &str) -> Self {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("fl-chain-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("create test dir");
            Self(path)
        }

        /// The directory path.
        pub fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testdir::TestDir;
    use super::*;

    fn payloads(log: &TestDir) -> Vec<Vec<u8>> {
        let (_, rec) = SegmentedLog::open(log.path(), LogConfig::default()).unwrap();
        rec.records
    }

    /// The byte-at-a-time table walk [`crc32`] replaced, kept as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    proptest::proptest! {
        #[test]
        fn prop_crc32_by_eight_equals_the_byte_walk(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=4096 + 7),
            start in 0usize..8,
        ) {
            // Random lengths after an unaligned start, then every tail
            // length the eight-byte steps can leave behind it.
            let bytes = &bytes[start.min(bytes.len())..];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
            let words = bytes.len() / 16 * 8;
            for tail in 0..=15 {
                let cut = &bytes[..(words + tail).min(bytes.len())];
                proptest::prop_assert_eq!(crc32(cut), crc32_bytewise(cut));
            }
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn append_flush_reopen_roundtrip() {
        let dir = TestDir::new("roundtrip");
        let (mut log, rec) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.truncated.is_none());
        log.append(b"alpha").unwrap();
        log.append(b"").unwrap(); // empty payloads are legal records
        log.append(b"gamma").unwrap();
        log.flush().unwrap();
        assert_eq!(
            payloads(&dir),
            vec![b"alpha".to_vec(), Vec::new(), b"gamma".to_vec()]
        );
    }

    #[test]
    fn unflushed_records_are_lost_cleanly() {
        let dir = TestDir::new("unflushed");
        let (mut log, _) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        log.append(b"durable").unwrap();
        log.flush().unwrap();
        log.append(b"volatile").unwrap();
        log.crash();
        assert_eq!(log.append(b"x"), Err(LogError::Crashed));
        let (_, rec) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        assert_eq!(rec.records, vec![b"durable".to_vec()]);
        assert!(rec.truncated.is_none(), "no torn bytes: nothing to repair");
    }

    #[test]
    fn torn_write_detected_and_truncated() {
        let dir = TestDir::new("torn");
        let (mut log, _) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        log.append(b"durable").unwrap();
        log.flush().unwrap();
        log.append(b"torn-record-payload").unwrap();
        // Persist the header plus half the payload, then die.
        log.crash_torn(RECORD_HEADER_BYTES + 9).unwrap();

        let (reopened, rec) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        assert_eq!(rec.records, vec![b"durable".to_vec()]);
        let torn = rec.truncated.expect("tail must be detected");
        assert_eq!(torn.reason, TornReason::PartialPayload);
        assert_eq!(
            torn.offset,
            (RECORD_HEADER_BYTES + b"durable".len()) as u64,
            "truncated back to the last clean frame boundary"
        );
        drop(reopened);
        // After truncation a further reopen is clean.
        let (_, rec) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        assert!(rec.truncated.is_none());
        assert_eq!(rec.records, vec![b"durable".to_vec()]);
    }

    #[test]
    fn torn_header_detected() {
        // 3 bytes: not even a full length field; 6: the length but half
        // a CRC.
        for keep in [3, 6] {
            let dir = TestDir::new("torn-header");
            let (mut log, _) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
            log.append(b"keep").unwrap();
            log.flush().unwrap();
            log.append(b"lost").unwrap();
            log.crash_torn(keep).unwrap();

            let (_, rec) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
            assert_eq!(rec.records, vec![b"keep".to_vec()]);
            assert_eq!(rec.truncated.unwrap().reason, TornReason::PartialHeader);
        }
    }

    #[test]
    fn corrupted_crc_tail_truncated() {
        let dir = TestDir::new("bad-crc");
        let (mut log, _) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        log.append(b"first").unwrap();
        log.append(b"second").unwrap();
        log.flush().unwrap();
        drop(log);
        // Flip a payload byte of the final record on disk.
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        let (_, rec) = SegmentedLog::open(dir.path(), LogConfig::default()).unwrap();
        assert_eq!(rec.records, vec![b"first".to_vec()]);
        assert_eq!(rec.truncated.unwrap().reason, TornReason::CrcMismatch);
    }

    #[test]
    fn corruption_mid_log_is_refused_not_dropped() {
        let dir = TestDir::new("mid-corrupt");
        // Two records in segment 0, then roll to segment 1.
        let config = LogConfig { segment_bytes: 32 };
        let (mut log, _) = SegmentedLog::open(dir.path(), config).unwrap();
        log.append(&[1u8; 10]).unwrap(); // 18 bytes framed
        log.append(&[2u8; 10]).unwrap(); // would overflow: rolls to segment 1
        log.append(&[3u8; 10]).unwrap(); // rolls again
        log.flush().unwrap();
        assert_eq!(log.segment_id(), 2);
        drop(log);
        // Corrupt a payload byte in segment 0 — not the final segment.
        let path = segment_path(dir.path(), 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[RECORD_HEADER_BYTES] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        match SegmentedLog::open(dir.path(), config) {
            Err(LogError::Corrupt { segment: 0, .. }) => {}
            other => panic!("mid-log corruption must refuse to open, got {other:?}"),
        }
    }

    #[test]
    fn missing_segment_is_refused() {
        let dir = TestDir::new("gap");
        let config = LogConfig { segment_bytes: 16 };
        let (mut log, _) = SegmentedLog::open(dir.path(), config).unwrap();
        for i in 0..3u8 {
            log.append(&[i; 10]).unwrap();
        }
        log.flush().unwrap();
        drop(log);
        fs::remove_file(segment_path(dir.path(), 1)).unwrap();
        match SegmentedLog::open(dir.path(), config) {
            Err(LogError::Corrupt { reason, .. }) => {
                assert!(reason.contains("missing"), "{reason}");
            }
            other => panic!("gap must refuse to open, got {other:?}"),
        }
    }

    #[test]
    fn segments_roll_at_capacity_and_reopen_appends_to_tail() {
        let dir = TestDir::new("roll");
        let config = LogConfig { segment_bytes: 64 };
        let (mut log, _) = SegmentedLog::open(dir.path(), config).unwrap();
        let mut expect = Vec::new();
        for i in 0..10u8 {
            let payload = vec![i; 20]; // 28 bytes framed: 2 per segment
            log.append(&payload).unwrap();
            log.flush().unwrap();
            expect.push(payload);
        }
        assert!(log.segment_id() >= 4, "must have rolled");
        drop(log);

        let (mut log, rec) = SegmentedLog::open(dir.path(), config).unwrap();
        assert_eq!(rec.records, expect);
        // Appending after reopen lands after the recovered tail.
        log.append(&[0xAB; 20]).unwrap();
        log.flush().unwrap();
        let (_, rec) = SegmentedLog::open(dir.path(), config).unwrap();
        assert_eq!(rec.records.len(), 11);
        assert_eq!(rec.records[10], vec![0xAB; 20]);
    }

    #[test]
    fn oversized_record_gets_its_own_segment() {
        let dir = TestDir::new("oversize");
        let config = LogConfig { segment_bytes: 16 };
        let (mut log, _) = SegmentedLog::open(dir.path(), config).unwrap();
        log.append(&[7u8; 100]).unwrap(); // larger than a whole segment
        log.flush().unwrap();
        log.append(&[8u8; 100]).unwrap();
        log.flush().unwrap();
        let (_, rec) = SegmentedLog::open(dir.path(), config).unwrap();
        assert_eq!(rec.records, vec![vec![7u8; 100], vec![8u8; 100]]);
    }

    #[test]
    fn errors_render() {
        assert!(LogError::Crashed.to_string().contains("crashed"));
        let e = LogError::Corrupt {
            segment: 2,
            offset: 40,
            reason: "CrcMismatch".into(),
        };
        assert!(e.to_string().contains("segment 2"));
    }
}
