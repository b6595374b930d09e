//! The on-chain stage of a round: nonces, batched admission, one block
//! per bundle through consensus, and the pipeline handoff check; plus
//! the write-behind durable tail it alone drives (the `protocol` module
//! docs).

use std::collections::BTreeMap;
use std::sync::{mpsc, Arc, OnceLock};
use std::thread;
use std::time::Instant;

use fl_chain::block::Block;
use fl_chain::consensus::engine::{CommitReport, ConsensusEngine, EngineError};
use fl_chain::durability::{DurabilityConfig, DurabilityError, DurableStore};
use fl_chain::mempool::Mempool;
use fl_chain::store::ChainStore;
use fl_chain::tx::{AccountId, Transaction};

use super::off_chain::PreparedRound;
use super::{ProtocolError, StageTimings};
use crate::contract_fl::{FlCall, FlContract};

/// The honest replica's chain — what the durable store tails: miner 0's,
/// which every committee the driver builds holds (its first owner). An
/// engine without it has none of the driver's miners, a typed error.
pub(super) fn live_chain(
    engine: &ConsensusEngine<FlContract>,
) -> Result<&ChainStore<FlCall>, ProtocolError> {
    engine
        .store_of(0)
        .ok_or(ProtocolError::Consensus(EngineError::NoMiners))
}

/// One write-behind job: a stream's blocks, appended as one flushed
/// batch, then the contract state at the height they reach when the
/// snapshot cadence fires there.
type DurableJob = (Vec<Arc<Block<FlCall>>>, Option<Vec<u8>>);

/// The committing side of the write-behind durable tail (module docs).
/// The writer thread owns the store; this side tracks the height and
/// the snapshot cadence the store will have once every queued job is
/// written, so it decides what to queue without waiting for the disk.
pub(super) struct DurableTail<'w> {
    jobs: mpsc::Sender<DurableJob>,
    /// The writer's first error; it writes nothing after it.
    failed: &'w OnceLock<DurabilityError>,
    config: DurabilityConfig,
    /// Height of the durable chain once every queued job is written.
    queued: u64,
    /// Height of the newest snapshot queued, or recovered at open.
    last_snapshot: u64,
}

impl<'w> DurableTail<'w> {
    /// Spawns the writer over `store` in `scope`. The writer applies the
    /// jobs in queue order until the tail is dropped, and stops at its
    /// first error, which it leaves in `failed`.
    pub(super) fn spawn<'scope>(
        scope: &'scope thread::Scope<'scope, 'w>,
        store: &'w mut DurableStore<FlCall>,
        failed: &'w OnceLock<DurabilityError>,
    ) -> Self {
        let (jobs, queue) = mpsc::channel::<DurableJob>();
        let tail = Self {
            jobs,
            failed,
            config: store.config(),
            queued: store.store().height(),
            last_snapshot: store.last_snapshot_height(),
        };
        scope.spawn(move || {
            for (blocks, snapshot) in queue {
                let written = store.append_batch(blocks).and_then(|()| match snapshot {
                    Some(state) => store.write_snapshot(&state),
                    None => Ok(()),
                });
                if let Err(e) = written {
                    failed.get_or_init(|| e);
                    return;
                }
            }
        });
        tail
    }
}

/// The on-chain half of the round pipeline: mempool, consensus engine,
/// and the durable tail when a store is attached.
pub(super) struct OnChainStage<'a> {
    pub(super) engine: &'a mut ConsensusEngine<FlContract>,
    pub(super) pool: &'a mut Mempool<FlCall>,
    pub(super) durable: Option<DurableTail<'a>>,
}

impl OnChainStage<'_> {
    /// Queues the honest replica's chain past the queued height for the
    /// durable writer as one batch (the blocks themselves are shared
    /// with the replica), with a snapshot of the contract state if the
    /// cadence fires at the height they reach. Fails with the writer's
    /// error once it has stopped.
    fn sync_durable(&mut self) -> Result<(), ProtocolError> {
        let Some(tail) = self.durable.as_mut() else {
            return Ok(());
        };
        if let Some(e) = tail.failed.get() {
            return Err(e.clone().into());
        }
        let blocks = live_chain(self.engine)?.blocks_from(tail.queued);
        tail.queued += blocks.len() as u64;
        let snapshot = tail
            .config
            .snapshot_due(tail.queued, tail.last_snapshot)
            .then(|| {
                tail.last_snapshot = tail.queued;
                self.engine.honest_contract().snapshot_state()
            });
        // A send fails only once the writer has stopped: the error it
        // left is returned when the run joins it, a panic re-raised.
        let _ = tail.jobs.send((blocks, snapshot));
        Ok(())
    }

    /// The one commit routine: assigns nonces to `calls`, admits them in
    /// one batched pass, drains one sealed bundle per entry of `sizes`,
    /// commits the bundles as consecutive blocks, and persists them.
    /// A sharded round streams one bundle per cohort; the flat round,
    /// the setup block and the recovery block are its one-bundle case.
    ///
    /// Time up to and including each bundle before the last lands
    /// under `commit`; the last bundle (the `EvaluateRound`-bearing one
    /// of a round) plus persistence lands under `evaluate` — so a
    /// one-bundle commit reports `commit == 0`.
    ///
    /// The two error paths scope their rollback differently, on
    /// purpose. An admission failure un-admits this batch and commits
    /// nothing: never commit a truncated round (e.g. one missing an
    /// owner's update or the evaluation trigger). A consensus failure
    /// at bundle `i` keeps the committed prefix (those blocks reached
    /// quorum on every replica; they are persisted before the failure
    /// surfaces, so a crash-restart replays exactly the blocks every
    /// replica agrees on) and releases the unfinished suffix back to
    /// the pool, rewinding the affected senders' nonces for
    /// resubmission. Dropping `release`'s evicted orphans is deliberate:
    /// the rollback makes any still-queued transactions above the rewind
    /// point unexecutable, and their senders resubmit from the rewound
    /// nonce.
    pub(super) fn commit_stream(
        &mut self,
        calls: Vec<(AccountId, FlCall)>,
        sizes: &[usize],
        timings: &mut StageTimings,
    ) -> Result<Vec<CommitReport>, ProtocolError> {
        debug_assert_eq!(calls.len(), sizes.iter().sum::<usize>());
        let mut lap = Instant::now();
        let mut staged: BTreeMap<AccountId, u64> = BTreeMap::new();
        let txs: Vec<Transaction<FlCall>> = calls
            .into_iter()
            .map(|(sender, call)| {
                // The pool's expectation plus however many transactions
                // this batch already stages for the sender.
                let count = staged.entry(sender).or_insert(0);
                let nonce = self.pool.expected_nonce(sender) + *count;
                *count += 1;
                Transaction::new(sender, nonce, call)
            })
            .collect();
        let admission = self.pool.submit_batch(txs);
        if let Some((_, reason)) = admission.rejected.into_iter().next() {
            self.pool.rollback_admitted(admission.admitted);
            return Err(ProtocolError::Admission(reason));
        }
        let bundles = self.pool.drain_bundles(sizes);
        let mut reports = Vec::with_capacity(bundles.len());
        for (i, bundle) in bundles.iter().enumerate() {
            match self.engine.commit_bundle(bundle) {
                Ok(report) => reports.push(report),
                Err(e) => {
                    let unfinished: Vec<Transaction<FlCall>> = bundles[i..]
                        .iter()
                        .flat_map(|b| b.txs().iter().cloned())
                        .collect();
                    self.pool.release(&unfinished);
                    self.sync_durable()?;
                    return Err(e.into());
                }
            }
            let stage = if i + 1 == bundles.len() {
                self.sync_durable()?;
                &mut timings.evaluate
            } else {
                &mut timings.commit
            };
            *stage += lap.elapsed().as_secs_f64();
            lap = Instant::now();
        }
        Ok(reports)
    }

    /// Commits one prepared round: streams the cohort bundles, commits
    /// the recovery block on churned rounds, and verifies the pipeline
    /// handoff — the committed global model must equal the prediction
    /// bit for bit.
    pub(super) fn commit_round(
        &mut self,
        prepared: PreparedRound,
    ) -> Result<(Vec<CommitReport>, StageTimings), ProtocolError> {
        let PreparedRound {
            round,
            calls,
            bundle_sizes,
            recovery_calls,
            predicted_model,
            ..
        } = prepared;
        let mut timings = StageTimings::default();

        let mut commits = self.commit_stream(calls, &bundle_sizes, &mut timings)?;
        if !recovery_calls.is_empty() {
            let size = recovery_calls.len();
            commits.extend(self.commit_stream(recovery_calls, &[size], &mut timings)?);
        }

        // Pipeline handoff check (module docs): round r+1 may already be
        // training against `predicted_model` on the other stage, so any
        // divergence here is a protocol bug that must halt the run, not
        // skew it silently.
        let live = self.engine.honest_contract().global_model();
        let agrees = live.len() == predicted_model.len()
            && live
                .iter()
                .zip(&predicted_model)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !agrees {
            return Err(ProtocolError::PipelineDivergence { round });
        }
        Ok((commits, timings))
    }
}
