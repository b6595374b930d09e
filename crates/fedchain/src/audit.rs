//! Independent chain auditing — transparency made executable.
//!
//! The paper's core selling point is that the contribution evaluation is
//! "fully transparent \[and\] verifiable" (Sect. II-C): anyone holding the
//! chain can replay it and confirm every published state root. This
//! module is that *anyone*: given a chain and the public genesis
//! parameters, [`replay_chain`] reconstructs the contract state from
//! nothing but committed transactions and checks it against each block's
//! `state_root`. It is exactly what a regulator, a new miner syncing from
//! genesis, or a disgruntled data owner would run.
//!
//! [`fast_sync`] is the same certification run against **cold bytes on
//! disk**: it opens a [`fl_chain::durability::DurableStore`] directory
//! (recovering from any crash state), verifies the hash chain, and
//! either replays from genesis or — when a valid snapshot is present —
//! restores the contract from the snapshot blob, *proves* the restored
//! state against the state root committed at the snapshot height, and
//! replays only the blocks after it.

use std::path::Path;

use fl_chain::block::Block;
use fl_chain::codec::DecodeError;
use fl_chain::contract::{SmartContract, TxContext};
use fl_chain::durability::{DurabilityConfig, DurabilityError, DurableStore};
use fl_chain::hash::Hash32;
use fl_chain::log::TornTail;
use fl_chain::store::ChainStore;
use fl_ml::dataset::Dataset;

use crate::contract_fl::{FlCall, FlContract, FlError, FlParams};

/// Outcome of replaying one block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockAudit {
    /// Block height.
    pub height: u64,
    /// Root the block committed to.
    pub committed_root: Hash32,
    /// Root the auditor computed by re-execution.
    pub recomputed_root: Hash32,
    /// Whether they match.
    pub consistent: bool,
    /// Transactions replayed.
    pub txs: usize,
}

/// Full audit report.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Per-block results, in height order.
    pub blocks: Vec<BlockAudit>,
    /// The reconstructed final contract state.
    pub final_contributions: Vec<(u32, f64)>,
    /// True iff the hash chain and every state root verified.
    pub clean: bool,
}

/// Errors from replaying a chain.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditError {
    /// The genesis parameters the auditor was handed fail
    /// [`FlParams::validate`] against its test set; no replica was built.
    InvalidParams(FlError),
    /// The hash chain itself is broken; the fault names the first
    /// divergent height and the failed check (parent link, height, or
    /// transaction root).
    BrokenChain(fl_chain::store::ChainFault),
    /// A committed transaction failed to execute during replay — a chain
    /// this library produced can never contain one, so this indicates a
    /// foreign or tampered chain.
    ReplayFailure {
        /// Height of the failing block.
        height: u64,
        /// Index of the failing transaction.
        tx_index: usize,
        /// Contract error rendering.
        reason: String,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParams(e) => write!(f, "{e}"),
            Self::BrokenChain(fault) => {
                write!(f, "hash chain failed structural verification: {fault}")
            }
            Self::ReplayFailure {
                height,
                tx_index,
                reason,
            } => write!(
                f,
                "replay failed at block {height}, tx {tx_index}: {reason}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Replays a chain from genesis through a fresh contract replica.
///
/// `params` and `test_set` are the public setup artefacts (on-chain at
/// genesis in a deployment); everything else comes from the blocks.
/// Parameters that fail [`FlParams::validate`] are
/// [`AuditError::InvalidParams`], before anything else is read.
pub fn replay_chain(
    store: &ChainStore<FlCall>,
    params: FlParams,
    test_set: Dataset,
) -> Result<AuditReport, AuditError> {
    params
        .validate(&test_set)
        .map_err(AuditError::InvalidParams)?;
    store.verify_chain().map_err(AuditError::BrokenChain)?;
    let mut contract = FlContract::genesis(params, test_set);
    let (blocks, clean) = replay_blocks(&mut contract, store, 0)?;
    Ok(report_of(&contract, blocks, clean))
}

/// Re-executes blocks `from..height` through `contract`, checking each
/// recomputed state digest against the committed root. The contract must
/// already hold the state *after* block `from - 1`.
fn replay_blocks(
    contract: &mut FlContract,
    store: &ChainStore<FlCall>,
    from: u64,
) -> Result<(Vec<BlockAudit>, bool), AuditError> {
    let mut blocks = Vec::new();
    let mut clean = true;
    // The blocks are shared with the store, not copied, and no guard is
    // held while they replay.
    for block in store.blocks_from(from) {
        let audit = replay_block(contract, &block)?;
        clean &= audit.consistent;
        blocks.push(audit);
    }
    Ok((blocks, clean))
}

/// Re-executes one block and compares the resulting state digest with
/// the root the block committed.
fn replay_block(
    contract: &mut FlContract,
    block: &Block<FlCall>,
) -> Result<BlockAudit, AuditError> {
    let height = block.header.height;
    for (tx_index, tx) in block.txs.iter().enumerate() {
        let ctx = TxContext {
            block_height: height,
            view: block.header.view,
            sender: tx.sender,
            tx_index,
        };
        contract
            .execute(&ctx, &tx.call)
            .map_err(|e| AuditError::ReplayFailure {
                height,
                tx_index,
                reason: format!("{e:?}"),
            })?;
    }
    let recomputed = contract.state_digest();
    Ok(BlockAudit {
        height,
        committed_root: block.header.state_root,
        recomputed_root: recomputed,
        consistent: recomputed == block.header.state_root,
        txs: block.txs.len(),
    })
}

fn report_of(contract: &FlContract, blocks: Vec<BlockAudit>, clean: bool) -> AuditReport {
    let final_contributions = contract
        .contributions()
        .iter()
        .map(|(&id, &v)| (id, v))
        .collect();
    AuditReport {
        blocks,
        final_contributions,
        clean,
    }
}

/// Errors from certifying an on-disk chain.
#[derive(Debug, Clone, PartialEq)]
pub enum FastSyncError {
    /// The durable directory could not be recovered (corrupt log,
    /// tampered record, I/O failure).
    Durability(DurabilityError),
    /// The recovered chain failed the audit (broken hash chain or a
    /// transaction that no longer replays).
    Audit(AuditError),
    /// The snapshot blob did not decode as contract state. Its CRC and
    /// tip binding were valid, so this is tampering, not a crash.
    SnapshotUndecodable(DecodeError),
    /// The snapshot names a height with no block in the recovered chain
    /// to prove it against. Recovery only keeps snapshots bound to a
    /// block it replayed, so this is a store that broke its contract.
    SnapshotUnbound {
        /// Snapshot height.
        height: u64,
    },
    /// The state restored from the snapshot does not hash to the state
    /// root committed at the snapshot height — a well-formed forgery.
    SnapshotStateMismatch {
        /// Snapshot height.
        height: u64,
        /// Root committed by block `height - 1`.
        committed: Hash32,
        /// Digest of the restored state.
        restored: Hash32,
    },
}

impl std::fmt::Display for FastSyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Durability(e) => write!(f, "durable store recovery: {e}"),
            Self::Audit(e) => write!(f, "{e}"),
            Self::SnapshotUndecodable(e) => write!(f, "snapshot state undecodable: {e}"),
            Self::SnapshotUnbound { height } => {
                write!(f, "snapshot at height {height} names no block of the chain")
            }
            Self::SnapshotStateMismatch {
                height,
                committed,
                restored,
            } => write!(
                f,
                "snapshot at height {height} hashes to {restored:?}, chain committed {committed:?}"
            ),
        }
    }
}

impl std::error::Error for FastSyncError {}

impl From<DurabilityError> for FastSyncError {
    fn from(e: DurabilityError) -> Self {
        Self::Durability(e)
    }
}

impl From<AuditError> for FastSyncError {
    fn from(e: AuditError) -> Self {
        Self::Audit(e)
    }
}

/// Outcome of [`fast_sync`]: the audit verdict plus how the chain was
/// brought up from disk.
#[derive(Debug, Clone)]
pub struct FastSyncReport {
    /// The audit over the replayed range. With a snapshot,
    /// `audit.blocks` covers only the blocks *after* the snapshot (the
    /// prefix is certified by the snapshot's digest proof);
    /// `final_contributions` and `clean` always describe the full chain
    /// tip.
    pub audit: AuditReport,
    /// Height replay started at: 0 for a genesis sync, the snapshot
    /// height otherwise.
    pub synced_from: u64,
    /// Total blocks recovered from the log.
    pub blocks: u64,
    /// Digest of the tip header — compare against a live replica to
    /// confirm the on-disk chain is the same chain.
    pub tip_digest: Hash32,
    /// Torn tail record truncated during log recovery, if any.
    pub truncated: Option<TornTail>,
    /// Snapshot files present but rejected (torn, corrupt, or unbound).
    pub snapshots_rejected: usize,
}

/// Certifies a durable chain directory from cold bytes on disk.
///
/// Opens the [`DurableStore`] (running full crash recovery), verifies
/// the hash chain, then rebuilds the contract state: from the newest
/// valid snapshot when one exists — restoring the blob and **verifying
/// its digest against the state root committed at the snapshot height**
/// before trusting it — or from genesis otherwise. Either way every
/// block after the sync point is re-executed and checked against its
/// committed state root, so a clean report certifies the whole chain.
/// Parameters that fail [`FlParams::validate`] are
/// [`AuditError::InvalidParams`], before the directory is opened.
pub fn fast_sync(
    dir: &Path,
    params: FlParams,
    test_set: Dataset,
) -> Result<FastSyncReport, FastSyncError> {
    params
        .validate(&test_set)
        .map_err(AuditError::InvalidParams)?;
    let (durable, recovery) = DurableStore::<FlCall>::open(dir, DurabilityConfig::default())?;
    let store = durable.store();
    store
        .verify_chain()
        .map_err(|e| FastSyncError::Audit(AuditError::BrokenChain(e)))?;

    let (mut contract, synced_from) = match &recovery.snapshot {
        Some(snap) => {
            let restored = FlContract::restore(params, test_set, &snap.state)
                .map_err(FastSyncError::SnapshotUndecodable)?;
            let committed = snap
                .height
                .checked_sub(1)
                .and_then(|tip| store.with_block(tip, |block| block.header.state_root))
                .ok_or(FastSyncError::SnapshotUnbound {
                    height: snap.height,
                })?;
            let digest = restored.state_digest();
            if digest != committed {
                return Err(FastSyncError::SnapshotStateMismatch {
                    height: snap.height,
                    committed,
                    restored: digest,
                });
            }
            (restored, snap.height)
        }
        None => (FlContract::genesis(params, test_set), 0),
    };

    let (blocks, clean) = replay_blocks(&mut contract, store, synced_from)?;
    let audit = report_of(&contract, blocks, clean);
    Ok(FastSyncReport {
        audit,
        synced_from,
        blocks: recovery.blocks,
        tip_digest: store.tip_digest(),
        truncated: recovery.truncated,
        snapshots_rejected: recovery.snapshots_rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::protocol::FlProtocol;

    fn run_protocol() -> (FlProtocol, FlParams, Dataset) {
        let config = FlConfig::quick_demo();
        let mut protocol = FlProtocol::new(config).expect("valid config");
        protocol.run().expect("honest run");
        let params = protocol.contract().params().clone();
        let test_set = protocol.test_set().clone();
        (protocol, params, test_set)
    }

    #[test]
    fn honest_chain_audits_clean() {
        let (protocol, params, test_set) = run_protocol();
        let store = protocol.engine().store_of(0).expect("miner 0");
        let report = replay_chain(store, params, test_set).expect("replayable");
        assert!(
            report.clean,
            "every block must verify: {:#?}",
            report.blocks
        );
        assert_eq!(report.blocks.len(), 2);
        // The auditor reconstructs the same ledger the contract holds.
        for (id, value) in &report.final_contributions {
            let live = protocol.contract().contributions()[id];
            assert_eq!(*value, live, "owner {id}");
        }
    }

    #[test]
    fn audit_requires_the_true_public_parameters() {
        // An auditor replaying with the wrong permutation seed derives a
        // different grouping, so the recomputed roots diverge: the chain
        // binds the evaluation to the published parameters.
        let (protocol, mut params, test_set) = run_protocol();
        params.permutation_seed ^= 1;
        let store = protocol.engine().store_of(0).expect("miner 0");
        let report = replay_chain(store, params, test_set).expect("still replayable");
        assert!(
            !report.clean,
            "wrong parameters must be detected via state roots"
        );
    }

    #[test]
    fn audit_detects_wrong_sv_method() {
        // The estimator choice is consensus configuration: replaying with
        // a different method diverges from the committed state roots, so
        // nobody can claim after the fact that another method ran.
        let (protocol, mut params, test_set) = run_protocol();
        params.sv_method = crate::config::SvMethod::MonteCarlo { permutations: 16 };
        let store = protocol.engine().store_of(0).expect("miner 0");
        let report = replay_chain(store, params, test_set).expect("still replayable");
        assert!(
            !report.clean,
            "a swapped evaluation method must be detected via state roots"
        );
    }

    #[test]
    fn audit_detects_wrong_test_set() {
        // Utility is part of the agreement; a different test set changes
        // evaluated accuracies and therefore the state roots.
        let (protocol, params, _) = run_protocol();
        let other_test = fl_ml::dataset::SyntheticDigits::small().generate(987_654);
        let store = protocol.engine().store_of(0).expect("miner 0");
        let report = replay_chain(store, params, other_test).expect("replayable");
        assert!(!report.clean);
    }

    #[test]
    fn dropout_chain_audits_clean_and_carries_recovery_evidence() {
        // A churned round (owner 1 drops, recovery block closes it)
        // replays exactly: the recovery lifecycle is part of the
        // re-executable record, not out-of-band state.
        let mut config = FlConfig::quick_demo();
        config.dropout_schedule = vec![(0, vec![1])];
        let mut protocol = FlProtocol::new(config).expect("valid config");
        protocol.run().expect("honest run");
        let params = protocol.contract().params().clone();
        let test_set = protocol.test_set().clone();
        let store = protocol.engine().store_of(0).expect("miner 0");
        let report = replay_chain(store, params, test_set).expect("replayable");
        assert!(
            report.clean,
            "churned chain must replay: {:#?}",
            report.blocks
        );
        // Setup + survivor block + recovery block.
        assert_eq!(report.blocks.len(), 3);
        let record = &protocol.contract().history()[0];
        assert_eq!(record.dropped, vec![1]);
        assert!(!record.recovery.is_empty());
    }

    #[test]
    fn tampered_survivor_set_diverges_at_the_first_state_root() {
        // An auditor (or malicious archivist) claiming a different
        // survivor set cannot produce the committed roots: the survivor
        // set is part of the round record, the record is part of the
        // state digest, and the digest is the block's state root.
        let mut config = FlConfig::quick_demo();
        config.dropout_schedule = vec![(0, vec![1])];
        let mut protocol = FlProtocol::new(config).expect("valid config");
        protocol.run().expect("honest run");
        let params = protocol.contract().params().clone();
        let test_set = protocol.test_set().clone();
        let store = protocol.engine().store_of(0).expect("miner 0");

        // Honest replay of every transaction, block by block.
        let mut contract = crate::contract_fl::FlContract::genesis(params, test_set);
        for height in 0..store.height() {
            let block = store.block_at(height).expect("height bounded");
            for (tx_index, tx) in block.txs.iter().enumerate() {
                let ctx = TxContext {
                    block_height: height,
                    view: block.header.view,
                    sender: tx.sender,
                    tx_index,
                };
                contract.execute(&ctx, &tx.call).expect("honest tx replays");
            }
        }
        let evaluated_block = store.block_at(store.height() - 1).expect("recovery block");
        assert_eq!(
            contract.state_digest(),
            evaluated_block.header.state_root,
            "sanity: the honest replay reproduces the committed root"
        );

        // Forge the record: claim the dropped owner survived.
        let record = contract.history_mut(0);
        assert_eq!(record.dropped, vec![1]);
        record.dropped.clear();
        record.survivors = vec![0, 1, 2, 3];
        assert_ne!(
            contract.state_digest(),
            evaluated_block.header.state_root,
            "a tampered survivor set must diverge at the first state root"
        );
    }

    #[test]
    fn every_replicas_chain_audits_identically() {
        let (protocol, params, test_set) = run_protocol();
        let mut roots = Vec::new();
        for id in 0..4u32 {
            let store = protocol.engine().store_of(id).expect("miner");
            let report = replay_chain(store, params.clone(), test_set.clone()).expect("ok");
            assert!(report.clean);
            roots.push(report.blocks.last().expect("blocks").recomputed_root);
        }
        assert!(roots.windows(2).all(|w| w[0] == w[1]));
    }
}
