//! End-to-end protocol orchestration.
//!
//! [`FlProtocol`] wires the whole paper together: it builds the world
//! (data set, 8:2 split, owner shards, quality noise), instantiates the data
//! owners and the consensus engine (every owner is also a miner,
//! Sect. III), and drives the rounds:
//!
//! * **block 0** — every owner advertises its DH public key *and*
//!   commits its key-escrow share commitments (the Bonawitz dropout
//!   extension: each owner Shamir-shares its DH private key across the
//!   cohort; the shares travel off-chain, their commitments live
//!   on-chain);
//! * **round blocks** — the surviving owners' masked updates for round
//!   `r`, one block per cohort of the round's
//!   [`shapley::hierarchy::RoundPlan`] (a flat `num_cohorts = 1` round
//!   is one block), the `EvaluateRound` call riding in the last. When
//!   the round's dropout schedule ([`FlConfig::dropout_schedule`])
//!   withholds owners, the same `EvaluateRound` instead opens the
//!   contract's recovery phase and a **further block** carries the
//!   survivors' recovery shares plus the closing `EvaluateRound` — the
//!   full dropout lifecycle is on-chain.
//!
//! Every commit — setup block, round, recovery block — goes through one
//! routine: the calls are staged with per-sender nonces, admitted in one
//! [`Mempool::submit_batch`] pass, drained as sealed
//! [`fl_chain::tx::TxBundle`]s (one per cohort for a round), and
//! committed block by block via [`ConsensusEngine::commit_bundle`]. If
//! consensus fails, the unfinished bundles are [`Mempool::release`]d so
//! the owners' nonce counters roll back instead of wedging every later
//! submission behind a permanent gap.
//!
//! After `R` rounds the contract holds each owner's cumulative
//! contribution `v_i = Σ_r v_i^r` (dropped owners earn exactly zero for
//! their missed rounds) and the final global model `W_G`.
//!
//! # Layout
//!
//! A round has the paper's two actors (Sect. IV), one file each:
//!
//! * `off_chain.rs` — the off-chain stage: the owners train and mask in
//!   one [`par::par_claim_mut`] region a round, then the round's calls
//!   are assembled and the next global model predicted;
//! * `on_chain.rs` — the on-chain stage: nonces, admission, consensus,
//!   the handoff check, and the write-behind durable tail it alone
//!   drives;
//! * this file — [`FlProtocol`], its errors and reports, and the run
//!   loop that hands each prepared round from one stage to the other.
//!
//! # Pipeline contract
//!
//! [`FlProtocol::run`] executes the round loop as a two-stage software
//! pipeline on [`par::par_claim_mut`]: round `r`'s on-chain tail (block
//! commit, SV evaluation, dropout recovery) is the side task of the
//! region in which round `r+1`'s owners train and mask, so the two run
//! concurrently and whichever ends first, its thread moves on to the
//! owners that remain. Overlap cannot change a state root
//! because every cross-stage input is digest-fixed before the stage
//! that consumes it starts:
//!
//! * **Keys and the pair-secret epoch** are fixed by the phase-0 setup
//!   block and never change afterwards (`KeyAlreadyAdvertised` rejects
//!   re-advertising), so the snapshot taken once at run start is
//!   byte-identical to what any round would read from the live
//!   contract.
//! * **The next global model** is fixed at round `r`'s *aggregation*
//!   point — before SV evaluation even begins. Pairwise masks cancel
//!   exactly in the u64 ring, so the off-chain stage predicts the
//!   committed model bit-identically from the plaintext encodings it
//!   already holds: per group of the round's plan, the contract's own
//!   group-mean routine `group_mean` — `decode_avg(Σ_ring
//!   encode(update_i))` over the group's survivors, `None` for a group
//!   that lost every member — folded by the very `reduce_models`
//!   function the contract calls (group means → cohort aggregates →
//!   global model), so only the inputs differ — masked sum with its
//!   residual masks stripped on-chain, plaintext encodings here. Round
//!   `r+1` trains against that prediction; after round `r`
//!   commits, the driver compares the prediction against the live
//!   contract **bit for bit** and fails with
//!   [`ProtocolError::PipelineDivergence`] on any mismatch. The check
//!   runs in sequential mode too, so the predictor is pinned by every
//!   test that drives the protocol.
//! * **Nonces and block order** are consensus-visible, so they are
//!   assigned only in the on-chain stage (which owns the mempool); the
//!   off-chain stage emits nonce-free `(sender, call)` pairs.
//!
//! [`FlProtocol::run_sequential`] drives the same two halves strictly
//! in order — the seed's original loop — and must produce a
//! bit-identical chain; the `par_determinism` suite pins pipelined ≡
//! sequential across thread caps, dropout schedules, and cohort
//! counts.
//!
//! **The durable tail is write-behind.** With a store attached
//! ([`FlProtocol::persist_to`]) a run opens one scoped writer thread
//! that owns the store from the setup block to the last round. The
//! on-chain stage does not wait for the disk: at the end of each stream
//! of bundles it queues the stream's blocks, plus the contract state
//! captured at that height wherever the snapshot cadence fires, and
//! moves on; the writer appends each stream as one flushed batch and
//! writes each snapshot, in queue order, so the bytes on disk are those
//! of a synchronous tail. The barrier is the end of the run: `run` and
//! `run_sequential` join the writer before they return, on success and
//! on every error, so every block committed is durable when they
//! return. The writer is the one thread outside `numeric::par` — it
//! holds no lease, and does no work but encoding, checksumming, writing
//! and syncing.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::thread;
use std::time::Instant;

use fl_chain::consensus::engine::{
    CommitReport, ConsensusEngine, EngineConfig, EngineError, MinerBehavior,
};
use fl_chain::consensus::leader::LeaderSchedule;
use fl_chain::durability::{DurabilityConfig, DurabilityError, DurableStore, RecoveryReport};
use fl_chain::gas::Gas;
use fl_chain::mempool::Mempool;
use fl_chain::tx::AccountId;
use fl_crypto::dh::DhGroup;
use fl_crypto::shamir::{Shamir, Share};
use fl_crypto::ChaChaPrg;
use fl_ml::dataset::Dataset;
use numeric::par;
use shapley::hierarchy::HierarchyError;

use crate::adversary::AdversaryKind;
use crate::config::{ConfigError, FlConfig};
use crate::contract_fl::{FlCall, FlContract, FlParams, RoundRecord};
use crate::owner::DataOwner;
use crate::world::World;

mod off_chain;
mod on_chain;

use off_chain::{setup_calls, OffChainStage};
use on_chain::{live_chain, DurableTail, OnChainStage};

/// Errors from building or running the protocol.
#[derive(Debug)]
pub enum ProtocolError {
    /// Invalid configuration.
    Config(ConfigError),
    /// Consensus failed (e.g. Byzantine majority).
    Consensus(EngineError),
    /// Secure aggregation failed (should not happen with valid config).
    SecureAgg(fl_crypto::secure_agg::SecureAggError),
    /// Dropout recovery failed (bad shares or a key mismatch).
    Dropout(fl_crypto::dropout::DropoutError),
    /// The mempool rejected part of a staged batch (internal invariant
    /// violation: the driver stages contiguous nonces and sizes the pool
    /// for the round, so this signals a bug — never commit a truncated
    /// round block silently).
    Admission(fl_chain::mempool::MempoolError),
    /// The attached durable store failed (log I/O, corrupt directory, a
    /// directory holding another chain, or an injected crash). The
    /// in-memory run is intact; persistence is not. During a run the
    /// writer stops at its first error and the run returns it once the
    /// writer is joined, ahead of any protocol error met after the
    /// failed write was queued.
    Durability(DurabilityError),
    /// An owner has no DH public key on-chain: the round machinery ran
    /// before the phase-0 setup block (a mis-sequenced caller).
    MissingAdvertisedKey {
        /// The owner whose key is missing.
        owner: AccountId,
    },
    /// The off-chain stage's predicted global model does not match the
    /// model the contract committed — the pipeline handoff invariant
    /// (see the module docs) was violated. This signals a bug in either
    /// half, never a recoverable runtime condition.
    PipelineDivergence {
        /// The round whose committed model diverged from the prediction.
        round: u64,
    },
    /// The round's cohort and group layout cannot be built over the
    /// owner set. `FlConfig::validate` rejects such counts first, so this
    /// signals a configuration that bypassed it.
    Layout(HierarchyError),
    /// Every owner dropped out of a round, so no one is left to submit
    /// its evaluation. `FlConfig::validate` rejects such a schedule
    /// first, so this signals a configuration that bypassed it.
    NoSurvivors {
        /// The round nobody survived.
        round: u64,
    },
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "configuration: {e}"),
            Self::Consensus(e) => write!(f, "consensus: {e}"),
            Self::SecureAgg(e) => write!(f, "secure aggregation: {e}"),
            Self::Dropout(e) => write!(f, "dropout recovery: {e}"),
            Self::Admission(e) => write!(f, "batch admission: {e}"),
            Self::Durability(e) => write!(f, "durable store: {e}"),
            Self::MissingAdvertisedKey { owner } => {
                write!(
                    f,
                    "owner {owner} has no advertised key (phase 0 incomplete)"
                )
            }
            Self::PipelineDivergence { round } => write!(
                f,
                "round {round}: predicted global model diverged from the committed model"
            ),
            Self::Layout(e) => write!(f, "round layout: {e}"),
            Self::NoSurvivors { round } => write!(f, "round {round}: every owner dropped out"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ConfigError> for ProtocolError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl From<EngineError> for ProtocolError {
    fn from(e: EngineError) -> Self {
        Self::Consensus(e)
    }
}

impl From<fl_crypto::secure_agg::SecureAggError> for ProtocolError {
    fn from(e: fl_crypto::secure_agg::SecureAggError) -> Self {
        Self::SecureAgg(e)
    }
}

impl From<fl_crypto::dropout::DropoutError> for ProtocolError {
    fn from(e: fl_crypto::dropout::DropoutError) -> Self {
        Self::Dropout(e)
    }
}

impl From<DurabilityError> for ProtocolError {
    fn from(e: DurabilityError) -> Self {
        Self::Durability(e)
    }
}

/// Wall-clock seconds spent in each pipeline stage, accumulated over
/// the whole run.
///
/// Observability only — never consensus state. In pipelined mode the
/// stage sums can exceed the run's wall clock because the off-chain
/// stage (`train_mask` + `assemble`) overlaps the on-chain stage
/// (`commit` + `evaluate`); the gap between `Σ stages` and
/// [`FlRunReport::wall_seconds`] is the overlap won, less the run's
/// unstaged glue.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    /// The run's phase 0: committing the setup block (every owner's
    /// `AdvertiseKey`, and the escrows when any owner is scheduled to
    /// drop) and snapshotting the advertised keys for the rounds.
    pub setup: f64,
    /// Local training plus mask generation (off-chain, per owner).
    pub train_mask: f64,
    /// Transaction assembly and next-model prediction (off-chain).
    pub assemble: f64,
    /// Committing the submission-only bundles of a round — every cohort
    /// bundle but the last (on-chain; exactly zero for a one-cohort
    /// round, whose single block lands under `evaluate`).
    pub commit: f64,
    /// Committing the `EvaluateRound`-bearing bundles — a round's last
    /// cohort bundle (SV evaluation) and, on churned rounds, the
    /// recovery block — plus queueing the round's blocks (and any due
    /// snapshot) for the durable writer. The writes themselves run
    /// beside the stages; the run waits for them only before it returns.
    pub evaluate: f64,
    /// That wait: once the last round has committed, the durable writer
    /// lands what it still holds — the final flush. `0.0` with no store
    /// attached.
    pub flush: f64,
}

impl StageTimings {
    /// Element-wise accumulation.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.setup += other.setup;
        self.train_mask += other.train_mask;
        self.assemble += other.assemble;
        self.commit += other.commit;
        self.evaluate += other.evaluate;
        self.flush += other.flush;
    }

    /// Sum over all stages — what a fully sequential run would cost.
    pub fn total(&self) -> f64 {
        self.setup + self.train_mask + self.assemble + self.commit + self.evaluate + self.flush
    }
}

/// Summary of a full protocol run.
#[derive(Debug, Clone)]
pub struct FlRunReport {
    /// Cumulative Shapley value per owner (indexed by owner position).
    pub per_owner_sv: Vec<f64>,
    /// Global-model test accuracy after each round.
    pub accuracy_history: Vec<f64>,
    /// Per-round evaluation records (the on-chain audit trail).
    pub round_records: Vec<RoundRecord>,
    /// Blocks committed.
    pub blocks: u64,
    /// Failed leader views (fraud attempts rejected).
    pub failed_views: u64,
    /// Total gas burned.
    pub total_gas: Gas,
    /// Commit reports per block, for deeper inspection.
    pub commits: Vec<CommitReport>,
    /// Per-stage wall-clock breakdown (see [`StageTimings`]).
    pub stages: StageTimings,
    /// End-to-end wall clock of the run, including setup.
    pub wall_seconds: f64,
}

/// The protocol driver.
pub struct FlProtocol {
    config: FlConfig,
    owners: Vec<DataOwner>,
    engine: ConsensusEngine<FlContract>,
    test_set: Dataset,
    pool: Mempool<FlCall>,
    /// Off-chain escrow shares: `escrows[i][j]` is the Shamir share of
    /// owner `i`'s DH private key held by owner `j` (its commitment is
    /// on-chain). In deployment each owner holds only its own column;
    /// the driver plays every owner, so it holds the whole matrix.
    escrows: Vec<Vec<Share>>,
    /// Optional on-disk tail of the honest replica's chain (see
    /// [`FlProtocol::persist_to`]); `None` keeps the run memory-only.
    durable: Option<DurableStore<FlCall>>,
}

impl FlProtocol {
    /// Builds the world with every miner honest.
    pub fn new(config: FlConfig) -> Result<Self, ProtocolError> {
        Self::with_behaviors(config, &BTreeMap::new())
    }

    /// Builds the world with specified miner behaviours (for fraud
    /// experiments).
    pub fn with_behaviors(
        config: FlConfig,
        behaviors: &BTreeMap<AccountId, MinerBehavior>,
    ) -> Result<Self, ProtocolError> {
        // World generation: the data set's, the 8:2 split's and the
        // shards' row shuffles composed, each row copied once into its
        // owner's shard or the test set, then the quality noise.
        let world = World::generate(&config)?;

        // An owner's keypair is one fixed-base modexp, a pure function of
        // `(seed, id)`: at most 31 products from the generator's resident
        // table of powers (`fl_crypto::dh`, "Montgomery residency"; the
        // process's first key builds it), priced as such, so 1 024 keys
        // stay on the caller. The shards move in behind the keys.
        let owner_ids: Vec<AccountId> = (0..config.num_owners as u32).collect();
        let key_seed = config.sub_seed("dh-keys");
        let keypairs = par::par_map(
            &owner_ids,
            par::items_per_lease(DhGroup::KEYGEN_FLOPS),
            |_, &id| DataOwner::keypair(id, key_seed),
        );
        let owners: Vec<DataOwner> = owner_ids
            .iter()
            .zip(world.shards)
            .zip(keypairs)
            .map(|((&id, shard), keypair)| {
                DataOwner::with_keypair(
                    id,
                    shard,
                    keypair,
                    config.train,
                    config.frac_bits,
                    key_seed,
                )
            })
            .collect();

        // Key escrow (setup stage of the dropout extension): every owner
        // Shamir-shares its DH private key across the cohort, seeded
        // from the world seed so every rebuild derives identical shares.
        // One owner's split is n · threshold field multiplications at
        // ≈ 39 ns each on the DH group's Montgomery context: 21 µs at
        // `stream_churn`'s 32 × 17, 20 ms at 1 024 × 513. With no
        // scheduled dropouts that (n times over) and the n escrow
        // transactions are pure overhead, so they are skipped.
        let n = config.num_owners;
        let shamir = Shamir::default();
        let threshold = config.escrow_threshold();
        let escrow_seed = config.sub_seed("key-escrow");
        let escrows: Vec<Vec<Share>> = if config.dropout_schedule.is_empty() {
            Vec::new()
        } else {
            owners
                .iter()
                .enumerate()
                .map(|(i, owner)| {
                    let mut seed_bytes = [0u8; 32];
                    seed_bytes[..8].copy_from_slice(&escrow_seed.to_le_bytes());
                    seed_bytes[8..16].copy_from_slice(&(i as u64).to_le_bytes());
                    let mut prg = ChaChaPrg::from_seed(&seed_bytes);
                    owner.escrow_key_shares(&shamir, threshold, n, &mut prg)
                })
                .collect::<Result<_, _>>()?
        };

        let params = FlParams {
            owners: owner_ids.clone(),
            num_groups: config.num_groups,
            sv_method: config.sv_method,
            permutation_seed: config.permutation_seed,
            total_rounds: config.rounds,
            model_dim: (config.data.features + 1) * config.data.classes,
            num_features: config.data.features,
            num_classes: config.data.classes,
            frac_bits: config.frac_bits,
            escrow_threshold: threshold,
            num_cohorts: config.num_cohorts,
        };
        let contract = FlContract::genesis(params, world.test.clone());
        // Miner committee: by default every owner mines (the paper's
        // consortium setting); at scale a prefix committee keeps the
        // per-block re-execution fan-out constant while owners stay
        // first-class on the data side.
        let miner_ids: Vec<AccountId> = if config.miner_committee > 0 {
            owner_ids
                .iter()
                .copied()
                .take(config.miner_committee)
                .collect()
        } else {
            owner_ids
        };
        let schedule = LeaderSchedule::round_robin(miner_ids);
        let engine = ConsensusEngine::new(contract, schedule, behaviors, EngineConfig::default())?;

        // Capacity: sized for the largest block any validated schedule
        // can assemble — the setup block (2n: keys + escrows), a round
        // block (n + 1), or a recovery block (dropped × threshold + 1,
        // which dominates as soon as several owners drop at once) — with
        // a few blocks of headroom.
        let max_dropped = config
            .dropout_schedule
            .iter()
            .map(|(r, _)| config.dropped_in_round(*r).len())
            .max()
            .unwrap_or(0);
        let max_block_txs = (2 * n).max(n + 1).max(max_dropped * threshold + 1);
        let pool = Mempool::new(max_block_txs * 8);

        Ok(Self {
            config,
            owners,
            engine,
            test_set: world.test,
            pool,
            escrows,
            durable: None,
        })
    }

    /// Attaches a durable store at `dir`: blocks already committed are
    /// logged before this returns, so attaching mid-run is sound, and
    /// every block a later [`Self::run`] commits is write-ahead logged,
    /// one flush per stream of bundles, with snapshots at the configured
    /// cadence. The run hands the writes to a writer thread of its own
    /// and joins it before returning: a block is durable when the `run`
    /// that committed it returns, not when its stream commits. Reopening
    /// the directory later (or handing it to
    /// [`crate::audit::fast_sync`]) reproduces the chain bit-identically.
    ///
    /// If `dir` already holds a prefix of this run's chain (a resumed
    /// run), logging continues after it; a directory holding a
    /// *different* chain fails with
    /// [`DurabilityError::Rejected`] at the first divergent block —
    /// here, or from the run that commits it. On an error here no store
    /// is attached.
    pub fn persist_to(
        &mut self,
        dir: impl Into<PathBuf>,
        config: DurabilityConfig,
    ) -> Result<RecoveryReport, ProtocolError> {
        let (mut durable, report) = DurableStore::open(dir, config)?;
        durable.append_batch(live_chain(&self.engine)?.blocks_from(durable.store().height()))?;
        if durable.snapshot_due() {
            durable.write_snapshot(&self.engine.honest_contract().snapshot_state())?;
        }
        self.durable = Some(durable);
        Ok(report)
    }

    /// Installs an adversarial behaviour on one owner (by position).
    ///
    /// # Panics
    ///
    /// Panics if `owner_index` is out of range.
    pub fn set_adversary(&mut self, owner_index: usize, kind: AdversaryKind) {
        self.owners[owner_index].set_adversary(kind);
    }

    /// The configuration this protocol was built with.
    pub fn config(&self) -> &FlConfig {
        &self.config
    }

    /// The held-out test set (the public utility data).
    pub fn test_set(&self) -> &Dataset {
        &self.test_set
    }

    /// The honest replica of the contract.
    pub fn contract(&self) -> &FlContract {
        self.engine.honest_contract()
    }

    /// The consensus engine (chain stores, stats).
    pub fn engine(&self) -> &ConsensusEngine<FlContract> {
        &self.engine
    }

    /// The mempool feeding the engine (nonce accounting, batched
    /// admission).
    pub fn mempool(&self) -> &Mempool<FlCall> {
        &self.pool
    }

    /// Runs the complete protocol — key exchange plus all `R` rounds —
    /// as a two-stage pipeline: round `r+1`'s off-chain work overlaps
    /// round `r`'s on-chain tail (see the module docs' pipeline
    /// contract). Produces a chain bit-identical to
    /// [`Self::run_sequential`]. With a store attached, every committed
    /// block is durable when this returns.
    pub fn run(&mut self) -> Result<FlRunReport, ProtocolError> {
        self.run_with(true)
    }

    /// Runs the complete protocol strictly round-sequentially (the
    /// paper's original loop): each round trains, commits, and
    /// evaluates before the next starts. The reference for the
    /// pipelined mode's bit-equality contract — and the baseline the
    /// `round_pipeline` bench measures against. Persists as
    /// [`Self::run`] does.
    pub fn run_sequential(&mut self) -> Result<FlRunReport, ProtocolError> {
        self.run_with(false)
    }

    fn run_with(&mut self, pipelined: bool) -> Result<FlRunReport, ProtocolError> {
        let run_start = Instant::now();
        let mut store = self.durable.take();
        let failed = OnceLock::new();
        // The writer lives for the scope; the rounds drop their end of
        // its queue when they return, and the scope joins it.
        let (rounds, committed) = thread::scope(|scope| {
            let durable = store
                .as_mut()
                .map(|store| DurableTail::spawn(scope, store, &failed));
            (self.run_rounds(pipelined, durable), Instant::now())
        });
        // From the last commit to the join: the writer's final flush.
        let flush = if store.is_some() {
            committed.elapsed().as_secs_f64()
        } else {
            0.0
        };
        self.durable = store;
        // The writer's error comes first: the job it failed on was
        // queued before anything the run met after it.
        if let Some(e) = failed.into_inner() {
            return Err(e.into());
        }
        let (commits, mut stages) = rounds?;
        stages.flush = flush;

        let contract = self.engine.honest_contract();
        let per_owner_sv: Vec<f64> = contract
            .params()
            .owners
            .iter()
            .map(|id| contract.contributions()[id])
            .collect();
        let accuracy_history: Vec<f64> = contract
            .history()
            .iter()
            .map(|r| r.global_accuracy)
            .collect();
        let round_records = contract
            .history()
            .iter()
            .map(|record| RoundRecord::clone(record))
            .collect();
        let stats = self.engine.stats();

        Ok(FlRunReport {
            per_owner_sv,
            accuracy_history,
            round_records,
            blocks: stats.blocks,
            failed_views: stats.failed_views,
            total_gas: stats.gas,
            commits,
            stages,
            wall_seconds: run_start.elapsed().as_secs_f64(),
        })
    }

    /// The setup block and every round, committed through one on-chain
    /// stage that owns the durable tail, if any: the stage is dropped on
    /// return, and with it the writer's queue.
    fn run_rounds(
        &mut self,
        pipelined: bool,
        durable: Option<DurableTail<'_>>,
    ) -> Result<(Vec<CommitReport>, StageTimings), ProtocolError> {
        // Split borrows: the off-chain stage owns the owners and escrows,
        // the on-chain stage the engine, pool, and durable tail —
        // disjoint, so the two halves may run concurrently.
        let Self {
            config,
            owners,
            engine,
            pool,
            escrows,
            durable: _,
            test_set: _,
        } = self;
        let mut on = OnChainStage {
            engine,
            pool,
            durable,
        };
        let mut commits = Vec::new();
        let setup = Instant::now();
        // Phase 0, unless keys are already on-chain (re-advertising
        // would fail the block with `KeyAlreadyAdvertised` and wedge the
        // protocol).
        if on
            .engine
            .honest_contract()
            .public_key_of(owners[0].id())
            .is_none()
        {
            let calls = setup_calls(owners, escrows);
            let size = calls.len();
            commits.extend(on.commit_stream(calls, &[size], &mut StageTimings::default())?);
        }
        let mut off = OffChainStage::new(config, owners, escrows, on.engine.honest_contract())?;
        let mut stages = StageTimings {
            setup: setup.elapsed().as_secs_f64(),
            ..StageTimings::default()
        };
        // `FlConfig::validate` holds `rounds ≥ 1`: round 0 is always run.
        let model0 = on.engine.honest_contract().global_model();
        let mut prepared = off.prepare_round(0, model0, None::<fn()>).1?;
        loop {
            stages.accumulate(&prepared.timings);
            let next_round = prepared.round + 1;
            let more = next_round < config.rounds;
            let (committed, next) = if pipelined && more {
                // Round r+1 is prepared with round r's on-chain tail
                // beside it; r+1 trains against the predicted
                // (digest-fixed) model.
                let model = prepared.predicted_model.clone();
                let tail = || on.commit_round(prepared);
                let (committed, next) = off.prepare_round(next_round, &model, Some(tail));
                (committed.transpose()?, Some(next))
            } else {
                let committed = on.commit_round(prepared)?;
                // Sequential: train against the live committed model
                // (the seed's loop verbatim); commit_round just pinned
                // it equal to the prediction.
                let live = on.engine.honest_contract().global_model();
                let next = more.then(|| off.prepare_round(next_round, live, None::<fn()>).1);
                (Some(committed), next)
            };
            if let Some((reports, timings)) = committed {
                commits.extend(reports);
                stages.accumulate(&timings);
            }
            match next {
                Some(next) => prepared = next?,
                None => return Ok((commits, stages)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fl_chain::consensus::engine::MinerBehavior;
    use fl_chain::contract::SmartContract;
    use shapley::hierarchy::RoundPlan;

    fn quick() -> FlConfig {
        FlConfig::quick_demo()
    }

    #[test]
    fn full_run_commits_and_learns() {
        let mut protocol = FlProtocol::new(quick()).unwrap();
        let report = protocol.run().unwrap();
        // 1 key block + 1 round block.
        assert_eq!(report.blocks, 2);
        assert_eq!(report.per_owner_sv.len(), 4);
        assert_eq!(report.accuracy_history.len(), 1);
        // The global model must beat random guessing (10 classes).
        assert!(
            report.accuracy_history[0] > 0.5,
            "accuracy {} too low",
            report.accuracy_history[0]
        );
        assert_eq!(report.failed_views, 0);
        assert!(report.total_gas > Gas(0));
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut p = FlProtocol::new(quick()).unwrap();
            p.run().unwrap().per_owner_sv
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_round_accumulates() {
        let mut config = quick();
        config.rounds = 2;
        let mut protocol = FlProtocol::new(config).unwrap();
        let report = protocol.run().unwrap();
        assert_eq!(report.blocks, 3);
        assert_eq!(report.round_records.len(), 2);
        // Cumulative SV = sum of per-round SVs.
        for (i, &total) in report.per_owner_sv.iter().enumerate() {
            let sum: f64 = report.round_records.iter().map(|r| r.per_owner_sv[i]).sum();
            assert!((total - sum).abs() < 1e-12);
        }
    }

    #[test]
    fn pipelined_run_matches_sequential_bit_for_bit() {
        // The tentpole invariant, on both protocol shapes: a flat
        // multi-round chain and a sharded chain with a churned round —
        // once with one owner dropped, once with both members of one
        // group, which then has no model under the group-mean rule on
        // either stage (the contract's and the predictor's).
        let flat = {
            let mut c = quick();
            c.rounds = 3;
            c
        };
        let churned_sharded = {
            let mut c = sharded();
            c.rounds = 2;
            c.dropout_schedule = vec![(0, vec![1])];
            c
        };
        let group_lost = {
            let mut c = churned_sharded.clone();
            let plan = RoundPlan::new(c.permutation_seed, 0, 8, 2, 2).unwrap();
            let group = plan.groups()[1][0].clone();
            assert_eq!(group.len(), 2);
            c.dropout_schedule = vec![(0, group)];
            c
        };
        for config in [flat, churned_sharded, group_lost] {
            let mut seq = FlProtocol::new(config.clone()).unwrap();
            let seq_report = seq.run_sequential().unwrap();
            let mut pipe = FlProtocol::new(config).unwrap();
            let pipe_report = pipe.run().unwrap();
            assert_eq!(seq_report.per_owner_sv, pipe_report.per_owner_sv);
            assert_eq!(seq_report.accuracy_history, pipe_report.accuracy_history);
            assert_eq!(seq_report.blocks, pipe_report.blocks);
            assert_eq!(
                seq.engine().store_of(0).unwrap().tip_digest(),
                pipe.engine().store_of(0).unwrap().tip_digest(),
                "pipelined chain must be bit-identical to sequential"
            );
        }
    }

    #[test]
    fn missing_advertised_key_is_a_typed_error() {
        // Snapshotting keys before the phase-0 block is the
        // mis-sequenced-caller case that used to panic.
        let mut p = FlProtocol::new(quick()).unwrap();
        let contract = p.engine.honest_contract();
        match OffChainStage::new(&p.config, &mut p.owners, &p.escrows, contract) {
            Err(ProtocolError::MissingAdvertisedKey { owner: 0 }) => {}
            Err(other) => panic!("expected MissingAdvertisedKey for owner 0, got {other:?}"),
            Ok(_) => panic!("the key snapshot succeeded before the setup block"),
        }
    }

    #[test]
    fn stage_timings_are_recorded() {
        let mut config = quick();
        config.rounds = 2;
        let mut p = FlProtocol::new(config).unwrap();
        let report = p.run().unwrap();
        assert!(report.stages.train_mask > 0.0, "{:?}", report.stages);
        assert!(report.stages.evaluate > 0.0, "{:?}", report.stages);
        // Flat rounds commit a single block, accounted under `evaluate`;
        // the setup block is a stage of its own.
        assert_eq!(report.stages.commit, 0.0);
        assert!(report.stages.setup > 0.0, "{:?}", report.stages);
        assert!(report.wall_seconds >= report.stages.evaluate);
        assert!(report.stages.total() > 0.0);

        // A sharded run streams its first cohort's bundle under `commit`;
        // run sequentially, its stages are disjoint spans of the run.
        let mut p = FlProtocol::new(sharded()).unwrap();
        let report = p.run_sequential().unwrap();
        assert!(report.stages.setup > 0.0, "{:?}", report.stages);
        assert!(report.stages.commit > 0.0, "{:?}", report.stages);
        assert!(
            report.stages.total() <= report.wall_seconds,
            "{:?} over {} s",
            report.stages,
            report.wall_seconds
        );
    }

    #[test]
    fn fraudulent_leader_rejected_and_result_unchanged() {
        // Owner 0 (first leader) proposes corrupted evaluation results;
        // the honest majority skips it. The contributions must equal the
        // all-honest run exactly.
        let honest = {
            let mut p = FlProtocol::new(quick()).unwrap();
            p.run().unwrap()
        };
        let behaviors: BTreeMap<AccountId, MinerBehavior> =
            [(0u32, MinerBehavior::CorruptProposals)].into();
        let mut p = FlProtocol::with_behaviors(quick(), &behaviors).unwrap();
        let fraud = p.run().unwrap();

        assert!(fraud.failed_views > 0, "fraud must cost views");
        assert_eq!(honest.per_owner_sv, fraud.per_owner_sv);
        assert_eq!(honest.accuracy_history, fraud.accuracy_history);
        // Fraudulent leader never successfully led a block, and its first
        // attempt is on record as rejected.
        for commit in &fraud.commits {
            assert_ne!(commit.leader, 0);
        }
        assert!(fraud.commits[0].rejected_leaders.contains(&0));
    }

    #[test]
    fn byzantine_majority_stalls_the_protocol() {
        let behaviors: BTreeMap<AccountId, MinerBehavior> = [
            (1u32, MinerBehavior::RejectAll),
            (2u32, MinerBehavior::RejectAll),
            (3u32, MinerBehavior::RejectAll),
        ]
        .into();
        let mut p = FlProtocol::with_behaviors(quick(), &behaviors).unwrap();
        match p.run() {
            Err(ProtocolError::Consensus(EngineError::NoQuorum { .. })) => {}
            other => panic!("expected NoQuorum, got {other:?}"),
        }
    }

    #[test]
    fn free_rider_scores_below_honest_owners() {
        let mut config = quick();
        config.train.epochs = 20;
        let mut p = FlProtocol::new(config).unwrap();
        p.set_adversary(3, AdversaryKind::FreeRider);
        let report = p.run().unwrap();
        let honest_min = report.per_owner_sv[..3]
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        // Free rider contributes a zero model; in expectation its group
        // is dragged down. With m=2 and 4 owners it shares a group, so we
        // only assert it does not come out on top.
        let max = report
            .per_owner_sv
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            report.per_owner_sv[3] < max || honest_min == report.per_owner_sv[3],
            "free rider must not uniquely lead: {:?}",
            report.per_owner_sv
        );
    }

    #[test]
    fn failed_consensus_releases_nonces_for_resubmission() {
        // Drain → consensus failure → the driver drops the block's txs.
        // Without the release path, every owner's nonce counter stays
        // advanced and all later submissions hit a permanent nonce gap.
        let behaviors: BTreeMap<AccountId, MinerBehavior> = [
            (1u32, MinerBehavior::RejectAll),
            (2u32, MinerBehavior::RejectAll),
            (3u32, MinerBehavior::RejectAll),
        ]
        .into();
        let mut p = FlProtocol::with_behaviors(quick(), &behaviors).unwrap();
        assert!(p.run().is_err(), "Byzantine majority must stall");
        assert!(p.mempool().is_empty(), "dropped txs are not requeued");
        for id in 0..4u32 {
            assert_eq!(
                p.mempool().expected_nonce(id),
                0,
                "owner {id}'s nonce counter must roll back for resubmission"
            );
        }
    }

    #[test]
    fn dropout_round_commits_end_to_end_through_the_mempool() {
        // Owner 1 vanishes after masking in round 0. The round commits
        // in two blocks (survivors + recovery), the record carries the
        // survivor set and recovery evidence, and the dropped owner
        // earns exactly zero.
        let mut config = quick();
        config.dropout_schedule = vec![(0, vec![1])];
        let mut p = FlProtocol::new(config).unwrap();
        let report = p.run().unwrap();
        // Setup block + survivor block + recovery block.
        assert_eq!(report.blocks, 3);
        assert_eq!(report.round_records.len(), 1);
        let record = &report.round_records[0];
        assert_eq!(record.survivors, vec![0, 2, 3]);
        assert_eq!(record.dropped, vec![1]);
        assert_eq!(record.per_owner_sv[1], 0.0);
        assert_eq!(report.per_owner_sv[1], 0.0);
        assert_eq!(record.recovery.len(), 1);
        assert_eq!(record.recovery[0].dropped, 1);
        // Threshold-many survivors vouched the reconstruction.
        assert_eq!(record.recovery[0].providers.len(), 3);
        assert!(record.recovery[0].providers.iter().all(|p| *p != 1));

        // Every replica audits the churned chain clean.
        let params = p.contract().params().clone();
        let store = p.engine().store_of(0).unwrap();
        let audit = crate::audit::replay_chain(store, params, p.test_set().clone()).unwrap();
        assert!(audit.clean, "recovery blocks must replay exactly");
    }

    #[test]
    fn dropout_round_matches_from_scratch_survivor_aggregate() {
        // The recovered global model must equal a from-scratch unmasked
        // aggregate of the survivors: group-wise survivor means, then the
        // mean over surviving groups — bit-path through the same ring.
        let mut config = quick();
        config.dropout_schedule = vec![(0, vec![3])];
        let mut p = FlProtocol::new(config.clone()).unwrap();
        let report = p.run().unwrap();
        let record = &report.round_records[0];

        let world = World::generate(&config).unwrap();
        let updates = world.local_updates(&config);
        let codec = numeric::FixedCodec::new(config.frac_bits);
        let dim = (config.data.features + 1) * config.data.classes;
        let mut surviving_models: Vec<Vec<f64>> = Vec::new();
        for group in &record.groups {
            let alive: Vec<usize> = group.iter().copied().filter(|&i| i != 3).collect();
            if alive.is_empty() {
                continue;
            }
            let mut acc = vec![0u64; dim];
            for &i in &alive {
                numeric::FixedCodec::ring_add_assign(&mut acc, &codec.encode_vec(&updates[i]));
            }
            surviving_models.push(
                acc.iter()
                    .map(|&r| codec.decode_avg(r, alive.len()))
                    .collect(),
            );
        }
        let expect = numeric::linalg::mean_vectors(&surviving_models);
        assert_eq!(
            p.contract().global_model(),
            expect.as_slice(),
            "mask-stripped aggregate must be bit-identical to the plaintext ring sum"
        );
    }

    #[test]
    fn a_group_sum_beyond_the_ring_decodes_the_clamped_mean() {
        // 200 owners in one group at 52 fractional bits: the ring holds
        // ±2048, and a learning rate of 200 over 400 epochs without L2
        // drives single weights to ±480. Unclamped, the group's ring sum
        // wrapped with no error (accuracy 0.275 against 0.683 at 24
        // bits); clamped to ±2^11 / 200, it is the mean of the clamped
        // encodings — the world's updates — summed exactly.
        let mut config = FlConfig::quick_demo();
        config.num_owners = 200;
        config.num_groups = 1;
        config.rounds = 1;
        config.frac_bits = 52;
        config.train.learning_rate = 200.0;
        config.train.epochs = 400;
        config.train.l2 = 0.0;
        let mut p = FlProtocol::new(config.clone()).unwrap();
        p.run().unwrap();

        let world = World::generate(&config).unwrap();
        let updates = world.local_updates(&config);
        let codec = numeric::FixedCodec::new(config.frac_bits);
        let clamp = codec.summand_limit(config.num_owners);
        assert_eq!(config.weight_clamp(), clamp);
        assert!(
            updates.iter().flatten().any(|w| w.abs() == clamp),
            "the clamp must bite"
        );
        let dim = (config.data.features + 1) * config.data.classes;
        let zeros = vec![0.0; dim];
        let unclamped: Vec<Vec<f64>> = world
            .shards
            .iter()
            .map(|shard| {
                let design = fl_ml::Design::new(shard);
                fl_ml::logreg::LogisticModel::train_from(&zeros, &design, &config.train).to_flat()
            })
            .collect();
        let unclamped_sum_wraps = (0..dim).any(|k| {
            let sum: i128 = unclamped
                .iter()
                .map(|u| i128::from(codec.encode(u[k]) as i64))
                .sum();
            i64::try_from(sum).is_err()
        });
        assert!(unclamped_sum_wraps, "the shape must overflow the ring");
        let mean: Vec<f64> = (0..dim)
            .map(|k| {
                let sum: i128 = updates
                    .iter()
                    .map(|u| i128::from(codec.encode(u[k]) as i64))
                    .sum();
                let sum = i64::try_from(sum).expect("a clamped sum fits the ring");
                codec.decode_avg(sum as u64, config.num_owners)
            })
            .collect();
        assert_eq!(
            p.contract().global_model(),
            numeric::linalg::mean_vectors(&[mean]).as_slice()
        );
    }

    #[test]
    fn multi_dropout_round_with_ceil_n_over_3_dropped() {
        // The acceptance shape: 9 owners, ⌈9/3⌉ = 3 drop simultaneously
        // (threshold 5 survivors remain), the round completes on-chain.
        let mut config = quick();
        config.num_owners = 9;
        config.num_groups = 3;
        config.dropout_schedule = vec![(0, vec![2, 5, 8])];
        let mut p = FlProtocol::new(config).unwrap();
        let report = p.run().unwrap();
        assert_eq!(report.blocks, 3);
        let record = &report.round_records[0];
        assert_eq!(record.dropped, vec![2, 5, 8]);
        assert_eq!(record.survivors.len(), 6);
        assert_eq!(record.recovery.len(), 3);
        for d in [2usize, 5, 8] {
            assert_eq!(record.per_owner_sv[d], 0.0);
        }
        // Survivors split their groups' value; the ledger reflects it.
        let paid: usize = record.per_owner_sv.iter().filter(|v| v.abs() > 0.0).count();
        assert!(paid > 0, "survivors must be evaluated: {record:?}");
        let params = p.contract().params().clone();
        let audit = crate::audit::replay_chain(
            p.engine().store_of(0).unwrap(),
            params,
            p.test_set().clone(),
        )
        .unwrap();
        assert!(audit.clean);
    }

    #[test]
    fn mempool_is_sized_for_the_recovery_block() {
        // Regression: the recovery block carries dropped × threshold + 1
        // transactions, which outgrows the old (n + 1) × 8 sizing for
        // wide cohorts with many simultaneous dropouts. Any schedule the
        // validator accepts must fit the pool.
        let mut config = quick();
        config.num_owners = 33;
        config.num_groups = 3;
        // Maximum recoverable dropouts: n − threshold = 33 − 17 = 16.
        config.dropout_schedule = vec![(0, (17..33).collect())];
        config.validate().unwrap();
        let threshold = config.escrow_threshold();
        let recovery_block_txs = 16 * threshold + 1;
        let p = FlProtocol::new(config).unwrap();
        assert!(
            p.mempool().capacity() >= recovery_block_txs,
            "pool capacity {} cannot admit a {}-tx recovery block",
            p.mempool().capacity(),
            recovery_block_txs
        );
    }

    #[test]
    fn dropout_rounds_are_deterministic() {
        let run = |seed_offset: u64| {
            let mut config = quick();
            config.world_seed += seed_offset;
            config.dropout_schedule = vec![(0, vec![2])];
            let mut p = FlProtocol::new(config).unwrap();
            let report = p.run().unwrap();
            (report.per_owner_sv, p.contract().global_model().to_vec())
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1), "different world, different models");
    }

    #[test]
    fn dropped_owner_resumes_in_the_next_round() {
        // Dropping is per-round: the owner is back (and paid) in round 1.
        let mut config = quick();
        config.rounds = 2;
        config.dropout_schedule = vec![(0, vec![1])];
        let mut p = FlProtocol::new(config).unwrap();
        let report = p.run().unwrap();
        assert_eq!(report.round_records.len(), 2);
        assert_eq!(report.round_records[0].per_owner_sv[1], 0.0);
        assert_eq!(report.round_records[1].survivors, vec![0, 1, 2, 3]);
        // Cumulative SV for owner 1 comes entirely from round 1.
        assert_eq!(
            report.per_owner_sv[1],
            report.round_records[1].per_owner_sv[1]
        );
    }

    #[test]
    fn on_chain_method_selection_runs_and_audits() {
        // The round config picks the stratified estimator; the protocol
        // commits it, the audit record names it, and an auditor replaying
        // the chain with the true parameters verifies every state root.
        let method = crate::config::SvMethod::Stratified {
            samples_per_stratum: 2,
        };
        let mut config = quick();
        config.sv_method = method;
        let mut p = FlProtocol::new(config).unwrap();
        let report = p.run().unwrap();
        assert_eq!(report.round_records[0].sv_method, method);
        assert!(report.round_records[0].samples > 0);

        let params = p.contract().params().clone();
        assert_eq!(params.sv_method, method);
        let store = p.engine().store_of(0).unwrap();
        let audit = crate::audit::replay_chain(store, params, p.test_set().clone()).unwrap();
        assert!(audit.clean, "sampling evaluation must replay exactly");
    }

    #[test]
    fn chain_is_auditable_after_run() {
        let mut p = FlProtocol::new(quick()).unwrap();
        p.run().unwrap();
        for id in 0..4u32 {
            let store = p.engine().store_of(id).unwrap();
            assert_eq!(store.verify_chain(), Ok(()));
            assert_eq!(store.height(), 2);
        }
        // All replicas ended at the same state root.
        let roots: Vec<_> = (0..4u32)
            .map(|id| p.engine().contract_of(id).unwrap().state_digest())
            .collect();
        assert!(roots.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn invalid_config_rejected() {
        let mut c = quick();
        c.num_owners = 1;
        assert!(matches!(FlProtocol::new(c), Err(ProtocolError::Config(_))));
    }

    /// 8 owners in 2 cohorts of 4, 2 secure-agg groups per cohort.
    fn sharded() -> FlConfig {
        let mut config = quick();
        config.num_owners = 8;
        config.num_groups = 2;
        config.num_cohorts = 2;
        config
    }

    #[test]
    fn sharded_run_streams_one_block_per_cohort() {
        let mut p = FlProtocol::new(sharded()).unwrap();
        let report = p.run().unwrap();
        // 1 key block + 2 cohort blocks (no mega-block).
        assert_eq!(report.blocks, 3);
        assert_eq!(report.per_owner_sv.len(), 8);
        assert_eq!(report.failed_views, 0);

        let record = &report.round_records[0];
        assert_eq!(record.cohorts.len(), 2);
        assert_eq!(record.groups.len(), 4, "2 cohorts × 2 groups");
        let mut all: Vec<usize> = record
            .cohorts
            .iter()
            .flat_map(|c| c.members.clone())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..8).collect::<Vec<_>>(),
            "evidence partitions owners"
        );
        // Each cohort's member payouts compose to its second-level value.
        for ev in &record.cohorts {
            let total: f64 = ev.members.iter().map(|&i| record.per_owner_sv[i]).sum();
            assert!((total - ev.sv).abs() < 1e-9);
        }
        // Sharded training still learns (10 classes, random = 0.1).
        assert!(
            report.accuracy_history[0] > 0.5,
            "accuracy {} too low",
            report.accuracy_history[0]
        );

        // Every replica audits the streamed chain clean.
        let params = p.contract().params().clone();
        let audit = crate::audit::replay_chain(
            p.engine().store_of(0).unwrap(),
            params,
            p.test_set().clone(),
        )
        .unwrap();
        assert!(audit.clean, "per-cohort bundles must replay exactly");
    }

    #[test]
    fn sharded_runs_are_deterministic() {
        let run = || {
            let mut p = FlProtocol::new(sharded()).unwrap();
            let report = p.run().unwrap();
            let tip = p.engine().store_of(0).unwrap().tip_digest();
            (report.per_owner_sv, tip)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sharded_dropout_round_recovers_and_audits() {
        // Owner 1 drops in round 0 of a sharded run: 2 cohort blocks,
        // then the recovery block closes the round; the chain audits.
        let mut config = sharded();
        config.dropout_schedule = vec![(0, vec![1])];
        let mut p = FlProtocol::new(config).unwrap();
        let report = p.run().unwrap();
        // 1 key block + 2 cohort blocks + 1 recovery block.
        assert_eq!(report.blocks, 4);
        let record = &report.round_records[0];
        assert_eq!(record.dropped, vec![1]);
        assert_eq!(record.per_owner_sv[1], 0.0);
        assert_eq!(record.recovery.len(), 1);
        let dropped_cohort = record
            .cohorts
            .iter()
            .position(|c| c.dropped.contains(&1))
            .expect("owner 1 belongs to a cohort");
        assert!(record.cohorts[dropped_cohort].survivors.len() < 4);

        let params = p.contract().params().clone();
        let audit = crate::audit::replay_chain(
            p.engine().store_of(0).unwrap(),
            params,
            p.test_set().clone(),
        )
        .unwrap();
        assert!(audit.clean, "sharded recovery must replay exactly");
    }

    #[test]
    fn miner_committee_bounds_consensus_fanout() {
        // A 3-member committee mines for 8 owners: blocks carry committee
        // votes only, while all 8 owners keep training and earning.
        let mut config = sharded();
        config.miner_committee = 3;
        let mut p = FlProtocol::new(config).unwrap();
        assert_eq!(p.engine().miner_count(), 3);
        let report = p.run().unwrap();
        assert_eq!(report.blocks, 3);
        assert_eq!(report.per_owner_sv.len(), 8);
        for commit in &report.commits {
            assert_eq!(commit.votes_total, 3, "only the committee votes");
        }
        let paid = report.per_owner_sv.iter().filter(|v| v.abs() > 0.0).count();
        assert!(paid > 3, "non-miners still earn contributions");
    }

    #[test]
    fn escrow_is_skipped_without_a_dropout_schedule() {
        // No scheduled dropouts → no Shamir shares and a keys-only setup
        // block, halving setup traffic at scale.
        let p = FlProtocol::new(quick()).unwrap();
        assert!(p.escrows.is_empty());
        let mut p = p;
        let report = p.run().unwrap();
        assert_eq!(report.blocks, 2);
        // The setup block carries n key transactions, no escrows.
        let store = p.engine().store_of(0).unwrap();
        let setup = store.block_at(0).unwrap();
        assert_eq!(setup.txs.len(), 4, "keys only, no escrow txs");
    }
}
