//! The propose → re-execute → vote → commit engine.
//!
//! Models the paper's blockchain as a deterministic simulation over `n`
//! miner replicas, each holding its own copy of the smart-contract state
//! and the chain:
//!
//! 1. The [`LeaderSchedule`] names a proposer for the current view.
//! 2. The proposer executes the transactions on a scratch copy of its
//!    replica and publishes a block whose `state_root` commits to the
//!    result. Byzantine proposers can publish a *corrupted* root — this is
//!    the paper's fraudulent leader "proposing incorrect evaluation
//!    results" (Sect. III-A).
//! 3. Every other miner re-executes the same transactions on a scratch
//!    copy of *its* replica and votes to accept iff its root matches the
//!    proposal.
//! 4. On a strict majority, every miner applies the *proven* outcome to
//!    its replica and appends the block; otherwise the view advances and
//!    the next leader proposes the same transactions.
//!
//! The engine guarantees: **with an honest majority, only blocks whose
//! state root equals honest re-execution are ever committed** — the
//! machine-checked form of the paper's trust claim.
//!
//! # Batched, parallel pipeline
//!
//! [`ConsensusEngine::commit_bundle`] takes a pre-validated
//! [`TxBundle`] (see `mempool::Mempool::drain_bundle`), so admission
//! checks and the transaction Merkle root are computed once per block,
//! not once per miner. Within a view, the leader's proposal execution
//! and every verifier's independent re-execution *overlap*: they fan out
//! on `numeric::par` with one slot per miner. Each slot is a pure
//! function of the miner's index (replicas are in lockstep, execution is
//! deterministic), and the slots are combined in index order afterwards,
//! so quorum results are **bit-identical for any thread count** — the
//! same contract `numeric::par` pins for the Shapley engines.
//!
//! # Commit atomicity
//!
//! The commit phase is all-or-nothing by construction. Execution — the
//! only fallible step — happens exclusively on scratch replicas *before*
//! the vote; once quorum is reached, the outcome already proven on
//! scratch is transplanted onto every replica with no fallible call in
//! the apply loop. A post-quorum failure therefore cannot leave some
//! replicas advanced and others not (a divergence that would be
//! permanent, since every later block builds on it).
//!
//! Both copies in that scheme — the scratch a miner executes on and the
//! proven outcome each replica adopts — are `S::clone`, and the block
//! is assembled once and shared by every store behind one `Arc`. A
//! contract whose `Clone` shares its state until written to (the FL
//! contract's sections) therefore pays per block for what the block
//! touched, not for the size of its state, while replicas stay as
//! independent as deep copies: a write goes to the writer's own copy.

use std::collections::BTreeMap;
use std::sync::Arc;

use numeric::par;

use crate::block::Block;
use crate::contract::{ExecutionOutcome, SmartContract, TxContext};
use crate::gas::{Gas, GasMeter};
use crate::hash::Hash32;
use crate::store::ChainStore;
use crate::tx::{AccountId, Transaction, TxBundle};

use super::leader::LeaderSchedule;

/// How a miner behaves in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MinerBehavior {
    /// Follows the protocol.
    #[default]
    Honest,
    /// As leader, publishes a corrupted state root (models a fraudulent
    /// leader inflating its own contribution — the re-execution of honest
    /// miners won't match). Behaves honestly as a verifier.
    CorruptProposals,
    /// As verifier, accepts every proposal without re-executing (lazy
    /// validator).
    AcceptAll,
    /// As verifier, rejects every proposal (griefing).
    RejectAll,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Abort after this many consecutive failed views for one commit.
    pub max_view_changes: u64,
    /// Optional per-block gas limit.
    pub block_gas_limit: Option<Gas>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_view_changes: 64,
            block_gas_limit: None,
        }
    }
}

/// Errors from the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// No proposal reached a majority within `max_view_changes` views.
    NoQuorum {
        /// Views attempted.
        attempts: u64,
    },
    /// Transaction execution failed on the leader's replica.
    ExecutionFailed {
        /// Index of the failing transaction.
        tx_index: usize,
        /// Debug rendering of the contract error.
        reason: String,
    },
    /// The block exceeded its gas limit.
    OutOfGas {
        /// Gas used when the limit tripped.
        used: Gas,
        /// Limit in force.
        limit: Gas,
    },
    /// Engine constructed with no miners.
    NoMiners,
    /// Engine constructed with a duplicate miner id (the slot-per-miner
    /// pipeline requires ids to be unique).
    DuplicateMiner {
        /// The id that appears more than once.
        id: AccountId,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoQuorum { attempts } => {
                write!(f, "no proposal reached quorum after {attempts} views")
            }
            Self::ExecutionFailed { tx_index, reason } => {
                write!(f, "transaction {tx_index} failed: {reason}")
            }
            Self::OutOfGas { used, limit } => {
                write!(f, "block out of gas: used {used}, limit {limit}")
            }
            Self::NoMiners => write!(f, "engine has no miners"),
            Self::DuplicateMiner { id } => write!(f, "duplicate miner id {id}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Outcome of a successful commit.
#[derive(Debug, Clone)]
pub struct CommitReport {
    /// Digest of the committed block header.
    pub block_digest: Hash32,
    /// Height of the committed block.
    pub height: u64,
    /// The leader whose proposal was accepted.
    pub leader: AccountId,
    /// View in which the accepted proposal was made.
    pub view: u64,
    /// Total views consumed (1 = first leader succeeded).
    pub attempts: u64,
    /// Accept votes for the winning proposal (including the leader).
    pub votes_for: usize,
    /// Total miners.
    pub votes_total: usize,
    /// Gas consumed by the block.
    pub gas_used: Gas,
    /// Events emitted by the contract, in transaction order.
    pub events: Vec<String>,
    /// State root committed.
    pub state_root: Hash32,
    /// Leaders that were skipped because their proposal failed
    /// verification.
    pub rejected_leaders: Vec<AccountId>,
}

/// One miner replica.
#[derive(Debug, Clone)]
struct Miner<S: SmartContract> {
    id: AccountId,
    behavior: MinerBehavior,
    contract: S,
    store: ChainStore<S::Call>,
}

/// Result of executing a block's transactions on a scratch replica: the
/// advanced contract, its state root, and the per-tx outcomes. Holding
/// one is proof the block executes cleanly from the pre-state — the
/// commit phase applies it instead of re-executing.
struct ScratchOutcome<S> {
    contract: S,
    root: Hash32,
    outcomes: Vec<ExecutionOutcome>,
}

/// What one miner's parallel slot contributes to a view. Slot `i` is a
/// pure function of miner `i`'s replica (and the shared transaction
/// list), so the fan-out is schedule-invariant.
enum Slot<S> {
    /// The leader's slot: full proposal execution.
    Proposal(Result<ScratchOutcome<S>, EngineError>),
    /// An honest verifier's slot: independent re-execution root.
    Reexecution(Result<Hash32, EngineError>),
    /// A Byzantine verifier's slot: a vote without re-execution.
    Vote(bool),
}

/// Aggregate engine statistics across all commits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Blocks committed.
    pub blocks: u64,
    /// Transactions committed.
    pub txs: u64,
    /// Views that ended in rejection.
    pub failed_views: u64,
    /// Total gas across committed blocks.
    pub gas: Gas,
}

/// The consensus engine over a contract type `S`.
pub struct ConsensusEngine<S: SmartContract + Clone> {
    miners: Vec<Miner<S>>,
    schedule: LeaderSchedule,
    view: u64,
    config: EngineConfig,
    stats: EngineStats,
}

impl<S: SmartContract + Clone> ConsensusEngine<S> {
    /// Builds an engine: every miner starts from an identical copy of
    /// `genesis_contract` and an empty chain.
    ///
    /// `behaviors` maps miner ids to non-default behaviours; unlisted
    /// miners are honest.
    pub fn new(
        genesis_contract: S,
        schedule: LeaderSchedule,
        behaviors: &BTreeMap<AccountId, MinerBehavior>,
        config: EngineConfig,
    ) -> Result<Self, EngineError> {
        let ids = schedule.miners().to_vec();
        if ids.is_empty() {
            return Err(EngineError::NoMiners);
        }
        let mut seen = std::collections::BTreeSet::new();
        for &id in &ids {
            if !seen.insert(id) {
                return Err(EngineError::DuplicateMiner { id });
            }
        }
        let miners = ids
            .into_iter()
            .map(|id| Miner {
                id,
                behavior: behaviors.get(&id).copied().unwrap_or_default(),
                contract: genesis_contract.clone(),
                store: ChainStore::new(),
            })
            .collect();
        Ok(Self {
            miners,
            schedule,
            view: 0,
            config,
            stats: EngineStats::default(),
        })
    }

    /// Number of miners.
    pub fn miner_count(&self) -> usize {
        self.miners.len()
    }

    /// Current view number.
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Read access to a miner's contract replica.
    pub fn contract_of(&self, id: AccountId) -> Option<&S> {
        self.miners.iter().find(|m| m.id == id).map(|m| &m.contract)
    }

    /// Read access to the first honest miner's replica — the canonical
    /// "truth" in tests and experiments.
    pub fn honest_contract(&self) -> &S {
        self.miners
            .iter()
            .find(|m| m.behavior == MinerBehavior::Honest)
            .map(|m| &m.contract)
            .expect("engine requires at least one honest miner to be useful")
    }

    /// Read access to a miner's chain store.
    pub fn store_of(&self, id: AccountId) -> Option<&ChainStore<S::Call>> {
        self.miners.iter().find(|m| m.id == id).map(|m| &m.store)
    }

    /// Chain height (of the first miner — all replicas commit together).
    pub fn height(&self) -> u64 {
        self.miners[0].store.height()
    }
}

impl<S> ConsensusEngine<S>
where
    S: SmartContract + Clone + Send + Sync,
    S::Call: Send + Sync,
{
    /// Runs the full protocol to commit a sealed bundle as one block.
    ///
    /// The bundle is borrowed so that on error the caller still holds
    /// the transactions (e.g. to `release` them back to a mempool). On
    /// error **no replica has advanced**; see the module docs on commit
    /// atomicity.
    pub fn commit_bundle(
        &mut self,
        bundle: &TxBundle<S::Call>,
    ) -> Result<CommitReport, EngineError> {
        let txs = bundle.txs();
        let total = self.miners.len();
        let mut attempts = 0u64;
        let mut rejected_leaders = Vec::new();

        loop {
            if attempts >= self.config.max_view_changes {
                return Err(EngineError::NoQuorum { attempts });
            }
            let view = self.view;
            self.view += 1;
            attempts += 1;

            let leader_id = self.schedule.leader(view);
            let leader_pos = self
                .miners
                .iter()
                .position(|m| m.id == leader_id)
                .expect("schedule only names known miners");
            let leader_behavior = self.miners[leader_pos].behavior;
            // Replicas advance in lockstep: every miner is at one height.
            let height = self.miners[0].store.height();

            // Proposal execution and verification overlap: one parallel
            // slot per miner. Slot `i` depends only on miner `i`'s replica
            // and the shared transaction list, and slots are combined in
            // index order below, so the result is bit-identical for any
            // thread count.
            let mut slots: Vec<Slot<S>> = par::par_map(&self.miners, 1, |_, miner| {
                if miner.id == leader_id {
                    Slot::Proposal(self.scratch_execute(&miner.contract, height, view, txs))
                } else {
                    match miner.behavior {
                        MinerBehavior::AcceptAll => Slot::Vote(true),
                        MinerBehavior::RejectAll => Slot::Vote(false),
                        MinerBehavior::Honest | MinerBehavior::CorruptProposals => {
                            Slot::Reexecution(
                                self.scratch_execute(&miner.contract, height, view, txs)
                                    .map(|s| s.root),
                            )
                        }
                    }
                }
            });

            // The leader endorses its own proposal; its slot becomes a
            // yes-vote once the scratch outcome is extracted.
            let Slot::Proposal(proposal) =
                std::mem::replace(&mut slots[leader_pos], Slot::Vote(true))
            else {
                unreachable!("leader slot is always a proposal")
            };
            // A failing transaction invalidates the whole batch, before
            // any replica is touched.
            let scratch = proposal?;

            // A fraudulent leader publishes a different root.
            let proposed_root = match leader_behavior {
                MinerBehavior::CorruptProposals => {
                    Hash32::of("corrupted-proposal", &(scratch.root, view))
                }
                _ => scratch.root,
            };

            let mut votes_for = 0usize;
            for slot in &slots {
                let accept = match slot {
                    Slot::Vote(v) => *v,
                    Slot::Reexecution(Ok(root)) => *root == proposed_root,
                    // A verifier whose re-execution failed abstains
                    // (counted as reject). Deliberate BFT semantics: a
                    // faulted verifier must not be able to abort a
                    // proposal that reaches quorum without it — it
                    // adopts the proven outcome at commit like every
                    // replica, so replicas stay identical either way.
                    // (Unreachable with a deterministic contract: the
                    // leader fails identically and aborts above.)
                    Slot::Reexecution(Err(_)) => false,
                    Slot::Proposal(_) => unreachable!("proposal slot replaced above"),
                };
                if accept {
                    votes_for += 1;
                }
            }

            if votes_for * 2 <= total {
                // Proposal failed; next leader retries the same txs.
                self.stats.failed_views += 1;
                rejected_leaders.push(leader_id);
                continue;
            }

            // Commit — atomic by construction: the outcome already proven
            // on scratch is transplanted onto every replica; no fallible
            // call from here on, so either every replica advances or
            // (on the error paths above) none did.
            let ScratchOutcome {
                contract: proven,
                outcomes,
                ..
            } = scratch;
            let gas_used: Gas = outcomes.iter().map(|o| o.gas_used).sum();
            let events: Vec<String> = outcomes.into_iter().flat_map(|o| o.events).collect();
            // Lockstep replicas share one tip, so the block — including
            // the bundle's precomputed tx root — is assembled exactly
            // once. The proposed root is what goes on-chain: a corrupt
            // proposal that somehow won quorum would still commit its
            // lying root — tests pin that this cannot happen with an
            // honest majority.
            let parent = self.miners[0].store.tip_digest();
            let block = Arc::new(Block::from_bundle(
                height,
                parent,
                proposed_root,
                leader_id,
                view,
                bundle,
            ));
            let block_digest = block.header.digest();
            // Every store shares the one block, and a contract whose
            // `Clone` shares what it holds (the FL contract's sections)
            // hands each replica the proven state for a few pointers.
            for miner in &mut self.miners {
                miner.contract = proven.clone();
                miner
                    .store
                    .append_sealed(Arc::clone(&block))
                    .expect("replicas advance in lockstep");
            }

            self.stats.blocks += 1;
            self.stats.txs += txs.len() as u64;
            self.stats.gas += gas_used;

            return Ok(CommitReport {
                block_digest,
                height: self.height() - 1,
                leader: leader_id,
                view,
                attempts,
                votes_for,
                votes_total: total,
                gas_used,
                events,
                state_root: proposed_root,
                rejected_leaders,
            });
        }
    }

    /// The shared scratch-execution helper: executes `txs` on a clone of
    /// `contract`, metering gas. Both the leader's proposal and every
    /// honest verifier's re-execution run through it (concurrently — it
    /// takes `&self` and touches only its own scratch state).
    fn scratch_execute(
        &self,
        contract: &S,
        block_height: u64,
        view: u64,
        txs: &[Transaction<S::Call>],
    ) -> Result<ScratchOutcome<S>, EngineError> {
        let mut scratch = contract.clone();
        let mut meter = match self.config.block_gas_limit {
            Some(limit) => GasMeter::with_limit(limit),
            None => GasMeter::unlimited(),
        };
        let mut outcomes = Vec::with_capacity(txs.len());
        for (tx_index, tx) in txs.iter().enumerate() {
            let ctx = TxContext {
                block_height,
                view,
                sender: tx.sender,
                tx_index,
            };
            let outcome =
                scratch
                    .execute(&ctx, &tx.call)
                    .map_err(|e| EngineError::ExecutionFailed {
                        tx_index,
                        reason: format!("{e:?}"),
                    })?;
            meter
                .charge(outcome.gas_used)
                .map_err(|e| EngineError::OutOfGas {
                    used: e.used,
                    limit: e.limit,
                })?;
            outcomes.push(outcome);
        }
        let root = scratch.state_digest();
        Ok(ScratchOutcome {
            contract: scratch,
            root,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::testing::{CounterCall, CounterContract};

    fn engine_with(
        n: u32,
        behaviors: &[(AccountId, MinerBehavior)],
    ) -> ConsensusEngine<CounterContract> {
        let schedule = LeaderSchedule::round_robin((0..n).collect());
        let map: BTreeMap<AccountId, MinerBehavior> = behaviors.iter().copied().collect();
        ConsensusEngine::new(
            CounterContract::default(),
            schedule,
            &map,
            EngineConfig::default(),
        )
        .unwrap()
    }

    /// Seals `txs` with no admission checks (the engine imposes no nonce
    /// semantics) and commits them as one block.
    fn commit<S>(
        engine: &mut ConsensusEngine<S>,
        txs: Vec<Transaction<S::Call>>,
    ) -> Result<CommitReport, EngineError>
    where
        S: SmartContract + Clone + Send + Sync,
        S::Call: Send + Sync,
    {
        engine.commit_bundle(&TxBundle::seal_unchecked(txs))
    }

    fn add_txs(values: &[u64]) -> Vec<Transaction<CounterCall>> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| Transaction::new(0, i as u64, CounterCall::Add(v)))
            .collect()
    }

    #[test]
    fn honest_commit_first_view() {
        let mut engine = engine_with(4, &[]);
        let report = commit(&mut engine, add_txs(&[1, 2, 3])).unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.votes_for, 4);
        assert_eq!(report.leader, 0);
        assert_eq!(engine.honest_contract().value, 6);
        assert_eq!(engine.height(), 1);
        assert!(report.rejected_leaders.is_empty());
    }

    #[test]
    fn all_replicas_converge() {
        let mut engine = engine_with(5, &[]);
        commit(&mut engine, add_txs(&[10])).unwrap();
        commit(&mut engine, add_txs(&[5])).unwrap();
        let roots: Vec<Hash32> = (0..5)
            .map(|id| engine.contract_of(id).unwrap().state_digest())
            .collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]));
        for id in 0..5 {
            assert_eq!(engine.store_of(id).unwrap().verify_chain(), Ok(()));
            assert_eq!(engine.store_of(id).unwrap().height(), 2);
        }
    }

    #[test]
    fn commit_bundles_streams_consecutive_blocks() {
        let mut engine = engine_with(4, &[]);
        let bundles = [
            TxBundle::seal_unchecked(add_txs(&[1, 2])),
            TxBundle::seal_unchecked(vec![Transaction::new(0, 2, CounterCall::Add(3))]),
            TxBundle::seal_unchecked(vec![Transaction::new(0, 3, CounterCall::Add(4))]),
        ];
        let heights: Vec<u64> = bundles
            .iter()
            .map(|bundle| engine.commit_bundle(bundle).unwrap().height)
            .collect();
        assert_eq!(heights, vec![0, 1, 2], "one block per bundle, in order");
        assert_eq!(engine.honest_contract().value, 10);
        for id in 0..4 {
            assert_eq!(engine.store_of(id).unwrap().verify_chain(), Ok(()));
            assert_eq!(engine.store_of(id).unwrap().height(), 3);
        }
    }

    #[test]
    fn commit_bundles_failure_keeps_committed_prefix() {
        // A stream that fails at its second bundle: the first block stays
        // committed on every replica and the failing bundle advanced none.
        let mut engine = engine_with(4, &[]);
        let good = TxBundle::seal_unchecked(add_txs(&[1, 2]));
        let bad = TxBundle::seal_unchecked(vec![
            Transaction::new(0, 2, CounterCall::Add(4)),
            Transaction::new(0, 3, CounterCall::Fail),
        ]);
        engine.commit_bundle(&good).unwrap();
        let err = engine.commit_bundle(&bad).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ExecutionFailed { tx_index: 1, .. }
        ));
        for id in 0..4 {
            assert_eq!(engine.contract_of(id).unwrap().value, 3);
            assert_eq!(engine.store_of(id).unwrap().height(), 1);
        }
    }

    #[test]
    fn fraudulent_leader_is_skipped() {
        // Miner 0 (first leader) corrupts proposals; honest majority
        // rejects and miner 1 commits instead.
        let mut engine = engine_with(4, &[(0, MinerBehavior::CorruptProposals)]);
        let report = commit(&mut engine, add_txs(&[7])).unwrap();
        assert_eq!(report.attempts, 2, "view change after corrupt proposal");
        assert_eq!(report.leader, 1);
        assert_eq!(report.rejected_leaders, vec![0]);
        // State is the honest result, not the corrupted root.
        assert_eq!(engine.honest_contract().value, 7);
        assert_eq!(report.state_root, engine.honest_contract().state_digest());
        assert_eq!(engine.stats().failed_views, 1);
    }

    #[test]
    fn corrupt_leader_still_commits_as_follower() {
        // After being skipped as leader, the Byzantine miner's replica
        // still applies the honest block (it follows the chain).
        let mut engine = engine_with(4, &[(0, MinerBehavior::CorruptProposals)]);
        commit(&mut engine, add_txs(&[7])).unwrap();
        assert_eq!(engine.contract_of(0).unwrap().value, 7);
    }

    #[test]
    fn reject_all_minority_cannot_block() {
        let mut engine = engine_with(5, &[(3, MinerBehavior::RejectAll)]);
        let report = commit(&mut engine, add_txs(&[1])).unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.votes_for, 4);
    }

    #[test]
    fn reject_all_majority_stalls() {
        let mut engine = engine_with(
            4,
            &[
                (1, MinerBehavior::RejectAll),
                (2, MinerBehavior::RejectAll),
                (3, MinerBehavior::RejectAll),
            ],
        );
        let err = commit(&mut engine, add_txs(&[1])).unwrap_err();
        assert!(matches!(err, EngineError::NoQuorum { .. }));
        assert_eq!(engine.height(), 0, "nothing committed without quorum");
    }

    #[test]
    fn accept_all_does_not_break_honest_outcome() {
        // Lazy validators vote yes on a corrupted proposal, but the
        // honest majority still rejects it.
        let mut engine = engine_with(
            5,
            &[
                (0, MinerBehavior::CorruptProposals),
                (1, MinerBehavior::AcceptAll),
            ],
        );
        let report = commit(&mut engine, add_txs(&[9])).unwrap();
        // Corrupt leader (1 self-vote) + AcceptAll (1) = 2 of 5: rejected.
        assert_eq!(
            report.leader, 1,
            "next leader after fraud is AcceptAll miner 1"
        );
        assert_eq!(engine.honest_contract().value, 9);
    }

    #[test]
    fn corrupt_majority_commits_lies_documenting_the_trust_assumption() {
        // The paper's guarantee needs an honest majority; with a lazy
        // (AcceptAll) majority a fraudulent proposal *does* commit. Pin
        // that boundary so the threat model is explicit in code.
        let mut engine = engine_with(
            4,
            &[
                (0, MinerBehavior::CorruptProposals),
                (1, MinerBehavior::AcceptAll),
                (2, MinerBehavior::AcceptAll),
            ],
        );
        let report = commit(&mut engine, add_txs(&[3])).unwrap();
        assert_eq!(report.attempts, 1, "fraud wins with a lazy majority");
        assert_ne!(
            report.state_root,
            engine.honest_contract().state_digest(),
            "committed root is the corrupted one — trust assumption violated"
        );
    }

    #[test]
    fn failing_tx_aborts() {
        let mut engine = engine_with(3, &[]);
        let txs = vec![Transaction::new(0, 0, CounterCall::Fail)];
        let err = commit(&mut engine, txs).unwrap_err();
        assert!(matches!(
            err,
            EngineError::ExecutionFailed { tx_index: 0, .. }
        ));
        assert_eq!(engine.height(), 0);
    }

    #[test]
    fn gas_limit_enforced() {
        let schedule = LeaderSchedule::round_robin(vec![0, 1, 2]);
        let mut engine = ConsensusEngine::new(
            CounterContract::default(),
            schedule,
            &BTreeMap::new(),
            EngineConfig {
                block_gas_limit: Some(Gas(1)),
                ..Default::default()
            },
        )
        .unwrap();
        // Two txs at 1 gas each exceed the 1-gas block limit.
        let err = commit(&mut engine, add_txs(&[1, 2])).unwrap_err();
        assert!(matches!(err, EngineError::OutOfGas { .. }));
    }

    #[test]
    fn stats_accumulate() {
        let mut engine = engine_with(3, &[]);
        commit(&mut engine, add_txs(&[1, 2])).unwrap();
        commit(&mut engine, add_txs(&[3])).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.blocks, 2);
        assert_eq!(stats.txs, 3);
        assert_eq!(stats.gas, Gas(3));
        assert_eq!(stats.failed_views, 0);
    }

    #[test]
    fn duplicate_miner_ids_rejected_at_construction() {
        // The slot-per-miner pipeline identifies the leader by id; a
        // duplicate id would leave a second proposal slot unresolved, so
        // construction refuses it outright.
        let schedule = LeaderSchedule::round_robin(vec![0, 0, 1]);
        match ConsensusEngine::new(
            CounterContract::default(),
            schedule,
            &BTreeMap::new(),
            EngineConfig::default(),
        ) {
            Err(err) => assert_eq!(err, EngineError::DuplicateMiner { id: 0 }),
            Ok(_) => panic!("duplicate ids must be rejected"),
        }
    }

    #[test]
    fn empty_block_commits() {
        let mut engine = engine_with(3, &[]);
        let report = commit(&mut engine, vec![]).unwrap();
        assert_eq!(report.gas_used, Gas(0));
        assert_eq!(engine.height(), 1);
    }

    mod commit_atomicity {
        //! Regression tests for the commit-phase divergence bug: a
        //! failure that strikes *after* quorum (at what used to be the
        //! per-miner apply loop) must never leave some replicas advanced
        //! and others not.

        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        use super::*;

        /// A contract with a global execution budget shared across every
        /// replica and scratch clone. Executions past the budget fail —
        /// modelling an environment fault (allocation failure, resource
        /// exhaustion) that strikes only after the scratch phase. The
        /// digest covers the counter value *not at all*: state is the
        /// accumulated sum, so replicas are comparable.
        #[derive(Debug, Clone)]
        struct BudgetedContract {
            value: u64,
            calls: Arc<AtomicU64>,
            budget: u64,
        }

        impl BudgetedContract {
            fn new(budget: u64) -> Self {
                Self {
                    value: 0,
                    calls: Arc::new(AtomicU64::new(0)),
                    budget,
                }
            }
        }

        impl SmartContract for BudgetedContract {
            type Call = u64;
            type Error = String;

            fn execute(
                &mut self,
                _ctx: &TxContext,
                call: &u64,
            ) -> Result<ExecutionOutcome, String> {
                let n = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
                if n > self.budget {
                    return Err(format!("execution budget exhausted at call {n}"));
                }
                self.value = self.value.wrapping_add(*call);
                Ok(ExecutionOutcome::event(format!("+{call}"), Gas(1)))
            }

            fn state_digest(&self) -> Hash32 {
                Hash32::of("budgeted", &self.value)
            }
        }

        fn budgeted_engine(n: u32, budget: u64) -> ConsensusEngine<BudgetedContract> {
            let schedule = LeaderSchedule::round_robin((0..n).collect());
            ConsensusEngine::new(
                BudgetedContract::new(budget),
                schedule,
                &BTreeMap::new(),
                EngineConfig::default(),
            )
            .unwrap()
        }

        fn assert_replicas_identical(engine: &ConsensusEngine<BudgetedContract>, n: u32) {
            let roots: Vec<Hash32> = (0..n)
                .map(|id| engine.contract_of(id).unwrap().state_digest())
                .collect();
            assert!(
                roots.windows(2).all(|w| w[0] == w[1]),
                "replicas diverged: {roots:?}"
            );
            let heights: Vec<u64> = (0..n)
                .map(|id| engine.store_of(id).unwrap().height())
                .collect();
            assert!(
                heights.windows(2).all(|w| w[0] == w[1]),
                "chains diverged: {heights:?}"
            );
        }

        #[test]
        fn apply_time_fault_cannot_diverge_replicas() {
            // 4 miners × 2 txs: the scratch phase (leader + 3 honest
            // verifiers) consumes exactly 8 executions. A budget of 8
            // means *any* post-quorum re-execution — what the old apply
            // loop did per miner, with a fallible `?` in the middle —
            // would fail partway through the miner list and leave
            // replicas permanently diverged. The atomic commit applies
            // the proven scratch outcome instead and must succeed on
            // every replica.
            let n = 4;
            let mut engine = budgeted_engine(n, 8);
            let txs: Vec<Transaction<u64>> =
                vec![Transaction::new(0, 0, 10u64), Transaction::new(0, 1, 20u64)];
            let report = commit(&mut engine, txs).expect(
                "commit must not re-execute after quorum: the proven outcome is applied as-is",
            );
            assert_eq!(report.votes_for, 4);
            assert_replicas_identical(&engine, n);
            assert_eq!(engine.height(), 1, "committed on every replica");
            assert_eq!(engine.honest_contract().value, 30);
        }

        #[test]
        fn pre_quorum_fault_commits_on_no_replica() {
            // Budget 1 of the 8 needed: execution dies during the
            // scratch phase. The error must surface *before* any replica
            // is touched — all-or-nothing means "none" here.
            let n = 4;
            let mut engine = budgeted_engine(n, 1);
            let txs: Vec<Transaction<u64>> =
                vec![Transaction::new(0, 0, 10u64), Transaction::new(0, 1, 20u64)];
            let err = commit(&mut engine, txs).unwrap_err();
            assert!(matches!(err, EngineError::ExecutionFailed { .. }));
            assert_replicas_identical(&engine, n);
            assert_eq!(engine.height(), 0, "committed on no replica");
            for id in 0..n {
                assert_eq!(engine.contract_of(id).unwrap().value, 0);
            }
        }
    }
}
