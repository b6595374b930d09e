//! One *op*: one whole federation as a data owner and then an auditor
//! experience it, bracketed by the reference kernel and checked.
//!
//! (a) `FlProtocol::new(config)` → `persist_to(fresh dir)` → `run()`;
//! the protocol is dropped, then (b) a cold full audit:
//! `DurableStore::open(dir)` + `audit::replay_chain` from genesis.
//! Every op — timed ones included — is held to the output checks in
//! [`check_run`] and [`check_audit`]; a failing op yields no sample.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use fedchain::audit::{self, AuditReport};
use fedchain::config::{FlConfig, SvMethod};
use fedchain::contract_fl::AccuracyUtility;
use fedchain::{FlCall, FlParams, FlProtocol, FlRunReport};
use fl_chain::block::Block;
use fl_chain::durability::{DurabilityConfig, DurableStore};
use fl_chain::hash::Hash32;
use fl_ml::dataset::Dataset;
use shapley::utility::ModelUtility;

use crate::refkernel::RefKernel;
use crate::sys;
use crate::workload::expected_blocks;

/// Tolerance of the efficiency axiom `Σ V_j = u(N) − u(∅)`.
const EFFICIENCY_TOLERANCE: f64 = 1e-9;

/// The directory ops put their chains in. Each op gets a unique
/// sub-directory, removed when its guard drops — also when a check
/// fails or the op panics.
pub struct Scratch {
    root: PathBuf,
    next: AtomicU64,
}

impl Scratch {
    /// Uses (and creates) `root`.
    pub fn new(root: PathBuf) -> std::io::Result<Self> {
        fs::create_dir_all(&root)?;
        Ok(Self {
            root,
            next: AtomicU64::new(0),
        })
    }

    /// The scratch root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty directory unique to this process and call.
    pub fn dir(&self, tag: &str) -> std::io::Result<ScratchDir> {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        let path = self.root.join(format!("{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

/// A scratch sub-directory, deleted on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: Drop must not panic, and a leftover directory
        // under the (ignored) scratch root harms nothing.
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A failed output check (or an operation that errored).
#[derive(Debug, Clone)]
pub struct CheckFailure {
    /// Stable name of the failing check.
    pub check: &'static str,
    /// What was observed.
    pub detail: String,
}

impl CheckFailure {
    pub fn new(check: &'static str, detail: impl Into<String>) -> Self {
        Self {
            check,
            detail: detail.into(),
        }
    }
}

fn ensure(
    ok: bool,
    check: &'static str,
    detail: impl FnOnce() -> String,
) -> Result<(), CheckFailure> {
    if ok {
        Ok(())
    } else {
        Err(CheckFailure::new(check, detail()))
    }
}

/// Boundaries of the calls an op makes, taken on every op (an
/// `Instant::now()` costs tens of nanoseconds); the traced pass turns
/// them into spans.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    pub new_start: Instant,
    pub persist_start: Instant,
    pub run_start: Instant,
    pub run_end: Instant,
    pub open_start: Instant,
    pub replay_start: Instant,
    pub replay_end: Instant,
}

/// What one passing op measured.
#[derive(Debug, Clone)]
pub struct OpSample {
    /// Part (a): new + persist_to + run, wall seconds.
    pub run_s: f64,
    /// Part (b): open + replay_chain, wall seconds.
    pub audit_s: f64,
    /// Reference-kernel seconds before (a), between (a) and (b), and
    /// after (b).
    pub refs: [f64; 3],
    /// Process CPU seconds spent inside (a) and (b).
    pub cpu_s: f64,
    /// Bytes of WAL segments and snapshots the run left on disk.
    pub wal_bytes: u64,
    /// Blocks committed.
    pub blocks: u64,
    /// Digest of the live chain tip.
    pub tip: Hash32,
    /// Call boundaries.
    pub times: OpTimes,
}

impl OpSample {
    /// Part (a) in reference units.
    pub fn run_ref(&self) -> f64 {
        self.run_s / (0.5 * (self.refs[0] + self.refs[1]))
    }

    /// Part (b) in reference units.
    pub fn audit_ref(&self) -> f64 {
        self.audit_s / (0.5 * (self.refs[1] + self.refs[2]))
    }

    /// Process CPU seconds of (a) and (b) in reference units: over the
    /// mean of the op's three reference runs.
    pub fn cpu_ref(&self) -> f64 {
        self.cpu_s / (self.refs.iter().sum::<f64>() / 3.0)
    }
}

/// The op's artefacts, kept for the traced pass to replay.
pub struct OpArtefacts {
    pub report: FlRunReport,
    /// The committed chain, read back from miner 0's store.
    pub blocks: Vec<Block<FlCall>>,
    pub params: FlParams,
    pub test_set: Dataset,
    /// Miners of the run's consensus engine.
    pub miners: usize,
    /// The durable directory the run wrote (kept alive for replays).
    pub dir: ScratchDir,
}

/// Runs one op of `config` at the current thread cap.
///
/// With `keep`, the op's artefacts (and its chain directory) are
/// returned for the traced pass; otherwise the directory is removed
/// before returning.
pub fn run_op(
    config: &FlConfig,
    min_accuracy: f64,
    scratch: &Scratch,
    reference: &mut RefKernel,
    keep: bool,
) -> Result<(OpSample, Option<OpArtefacts>), CheckFailure> {
    let dir = scratch
        .dir("op")
        .map_err(|e| CheckFailure::new("scratch_dir", e.to_string()))?;

    // ---- (a) the federation ------------------------------------------
    let ref_before = reference.run();
    let cpu_a0 = sys::process_cpu_seconds();
    let new_start = Instant::now();
    let mut protocol = FlProtocol::new(config.clone())
        .map_err(|e| CheckFailure::new("protocol_new", e.to_string()))?;
    let persist_start = Instant::now();
    protocol
        .persist_to(dir.path(), DurabilityConfig::default())
        .map_err(|e| CheckFailure::new("persist_to", e.to_string()))?;
    let run_start = Instant::now();
    let report = protocol
        .run()
        .map_err(|e| CheckFailure::new("protocol_run", e.to_string()))?;
    let run_end = Instant::now();
    let cpu_a = sys::process_cpu_seconds() - cpu_a0;

    // Untimed: what the auditor is handed (public setup artefacts) and
    // what the checks compare against, then the live protocol goes away
    // so the audit really starts from cold bytes.
    let live_store = protocol
        .engine()
        .store_of(0)
        .ok_or_else(|| CheckFailure::new("miner_zero_store", "engine has no miner 0"))?;
    let tip = live_store.tip_digest();
    let blocks = if keep {
        (0..live_store.height())
            .filter_map(|h| live_store.block_at(h))
            .collect()
    } else {
        Vec::new()
    };
    let miners = protocol.engine().miner_count();
    let params = protocol.contract().params().clone();
    let test_set = protocol.test_set().clone();
    let live_contributions: Vec<(u32, f64)> = protocol
        .contract()
        .contributions()
        .iter()
        .map(|(&id, &v)| (id, v))
        .collect();
    drop(protocol);
    check_run(config, min_accuracy, &report, &test_set)?;

    // ---- (b) the cold audit ------------------------------------------
    let ref_between = reference.run();
    let cpu_b0 = sys::process_cpu_seconds();
    let open_start = Instant::now();
    let (durable, _) = DurableStore::<FlCall>::open(dir.path(), DurabilityConfig::default())
        .map_err(|e| CheckFailure::new("durable_open", e.to_string()))?;
    let replay_start = Instant::now();
    let audit = audit::replay_chain(durable.store(), params.clone(), test_set.clone())
        .map_err(|e| CheckFailure::new("replay_chain", e.to_string()))?;
    let replay_end = Instant::now();
    let cpu_b = sys::process_cpu_seconds() - cpu_b0;
    let ref_after = reference.run();

    check_audit(
        &audit,
        durable.store().tip_digest(),
        tip,
        &live_contributions,
    )?;
    drop(durable);
    let (wal, snapshots) =
        durable_bytes(dir.path()).map_err(|e| CheckFailure::new("durable_bytes", e.to_string()))?;

    let sample = OpSample {
        run_s: (run_end - new_start).as_secs_f64(),
        audit_s: (replay_end - open_start).as_secs_f64(),
        refs: [ref_before, ref_between, ref_after],
        cpu_s: cpu_a + cpu_b,
        wal_bytes: wal + snapshots,
        blocks: report.blocks,
        tip,
        times: OpTimes {
            new_start,
            persist_start,
            run_start,
            run_end,
            open_start,
            replay_start,
            replay_end,
        },
    };
    let artefacts = keep.then(|| OpArtefacts {
        report,
        blocks,
        params,
        test_set,
        miners,
        dir,
    });
    Ok((sample, artefacts))
}

/// Output checks on the run report.
pub fn check_run(
    config: &FlConfig,
    min_accuracy: f64,
    report: &FlRunReport,
    test_set: &Dataset,
) -> Result<(), CheckFailure> {
    let n = config.num_owners;
    let want_blocks = expected_blocks(config);
    ensure(report.blocks == want_blocks, "block_count", || {
        format!(
            "committed {} blocks, config implies {want_blocks}",
            report.blocks
        )
    })?;
    ensure(report.failed_views == 0, "failed_views", || {
        format!(
            "{} failed leader views in an honest run",
            report.failed_views
        )
    })?;
    ensure(
        report.per_owner_sv.len() == n && report.per_owner_sv.iter().all(|v| v.is_finite()),
        "per_owner_sv",
        || {
            format!(
                "{} values for {n} owners, or a non-finite one",
                report.per_owner_sv.len()
            )
        },
    )?;
    ensure(
        report.accuracy_history.len() as u64 == config.rounds
            && report.round_records.len() as u64 == config.rounds,
        "round_count",
        || {
            format!(
                "{} accuracies / {} records for {} rounds",
                report.accuracy_history.len(),
                report.round_records.len(),
                config.rounds
            )
        },
    )?;
    let final_accuracy = report.accuracy_history.last().copied().unwrap_or(0.0);
    ensure(
        (min_accuracy..=1.0).contains(&final_accuracy),
        "final_accuracy",
        || format!("final accuracy {final_accuracy} outside {min_accuracy}..=1"),
    )?;

    for record in &report.round_records {
        let scheduled = config.dropped_in_round(record.round);
        ensure(record.dropped == scheduled, "dropped_set", || {
            format!(
                "round {}: contract dropped {:?}, schedule says {scheduled:?}",
                record.round, record.dropped
            )
        })?;
        for &owner in &scheduled {
            ensure(
                record.per_owner_sv[owner] == 0.0,
                "dropped_owner_sv",
                || {
                    format!(
                        "round {}: dropped owner {owner} scored {}",
                        record.round, record.per_owner_sv[owner]
                    )
                },
            )?;
        }
    }

    // Efficiency axiom, where the estimator is exact and the game flat.
    if config.sv_method == SvMethod::GroupExact && config.num_cohorts == 1 {
        let empty =
            AccuracyUtility::new(test_set, config.data.features, config.data.classes).of_empty();
        for record in &report.round_records {
            let total: f64 = record.per_group_sv.iter().sum();
            let want = record.global_accuracy - empty;
            ensure(
                (total - want).abs() <= EFFICIENCY_TOLERANCE,
                "efficiency_axiom",
                || {
                    format!(
                        "round {}: group SVs sum to {total}, u(N) - u(empty) = {want}",
                        record.round
                    )
                },
            )?;
        }
    }
    Ok(())
}

/// Output checks on the cold audit against the live run.
pub fn check_audit(
    audit: &AuditReport,
    cold_tip: Hash32,
    live_tip: Hash32,
    live_contributions: &[(u32, f64)],
) -> Result<(), CheckFailure> {
    ensure(audit.clean, "audit_clean", || {
        let first = audit
            .blocks
            .iter()
            .find(|b| !b.consistent)
            .map(|b| b.height);
        format!("state root diverged at block {first:?}")
    })?;
    ensure(cold_tip == live_tip, "audit_tip_digest", || {
        format!(
            "cold tip {} != live tip {}",
            cold_tip.to_hex(),
            live_tip.to_hex()
        )
    })?;
    let same = audit.final_contributions.len() == live_contributions.len()
        && audit
            .final_contributions
            .iter()
            .zip(live_contributions)
            .all(|((a_id, a), (b_id, b))| a_id == b_id && a.to_bits() == b.to_bits());
    ensure(same, "audit_contributions", || {
        "replayed contributions differ from the live contract's".to_owned()
    })
}

/// Bytes of the `wal-*.seg` files and of the `snap-*.bin` files in `dir`.
pub fn durable_bytes(dir: &Path) -> std::io::Result<(u64, u64)> {
    let (mut wal, mut snapshots) = (0u64, 0u64);
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("wal-") && name.ends_with(".seg") {
            wal += entry.metadata()?.len();
        } else if name.starts_with("snap-") && name.ends_with(".bin") {
            snapshots += entry.metadata()?.len();
        }
    }
    Ok((wal, snapshots))
}

/// Chain heights of the snapshots in `dir`, from the `snap-<height>.bin`
/// file names.
pub fn snapshot_heights(dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut heights = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let height = name
            .to_string_lossy()
            .strip_prefix("snap-")
            .and_then(|rest| rest.strip_suffix(".bin"))
            .and_then(|digits| digits.parse::<u64>().ok());
        heights.extend(height);
    }
    Ok(heights)
}
