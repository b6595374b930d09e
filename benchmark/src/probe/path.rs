//! `probe.path`: the whole op again, one layer at a time, in protocol
//! order. Its leaf spans are the blocking path `trace.coverage` sums.

use std::collections::BTreeMap;

use fedchain::audit;
use fedchain::config::FlConfig;
use fedchain::contract_fl::RoundRecord;
use fedchain::owner::DataOwner;
use fedchain::{FlCall, FlContract, World};
use fl_chain::block::Block;
use fl_chain::consensus::engine::{ConsensusEngine, EngineConfig};
use fl_chain::consensus::leader::LeaderSchedule;
use fl_chain::durability::{DurabilityConfig, DurableStore};
use fl_chain::mempool::Mempool;
use fl_crypto::shamir::{Shamir, Share};
use fl_crypto::ChaChaPrg;
use numeric::{FixedCodec, U256};

use super::{fail, Owners, RoundReplay, PROBE_KEY_SEED};
use crate::op::{durable_bytes, snapshot_heights, CheckFailure, OpArtefacts, Scratch, ScratchDir};
use crate::stats::ratio;
use crate::trace::{OpTracer, SpanId};

pub(super) fn probe(
    tracer: &mut OpTracer<'_>,
    path: SpanId,
    config: &FlConfig,
    art: &OpArtefacts,
    scratch: &Scratch,
) -> Result<(Vec<RoundReplay>, Owners), CheckFailure> {
    // ---- FlProtocol::new, layer by layer ------------------------------
    let world = tracer
        .probe("fedchain.world.generate", path, || World::generate(config))
        .map_err(|e| fail("probe_world", e.to_string()))?;
    let rows: usize = world.shards.iter().map(|s| s.len()).sum::<usize>() + world.test.len();
    tracer.count("ml.dataset.rows", rows as f64);
    if world.test != art.test_set {
        return Err(fail(
            "probe_world",
            "regenerated test set differs from the run's",
        ));
    }
    let mut off_chain = OffChain::new(tracer, path, config, art, &world)?;
    let mut replica = Replica::genesis(tracer, path, art, &world, scratch)?;

    // ---- FlProtocol::run, block by block ------------------------------
    let mut rounds: Vec<RoundReplay> = Vec::new();
    for (height, block) in art.blocks.iter().enumerate() {
        // A round's off-chain half runs before its first block commits.
        let submits_for = block.txs.iter().find_map(|tx| match &tx.call {
            FlCall::SubmitMaskedUpdate { round, .. } => Some(*round),
            _ => None,
        });
        if let Some(round) = submits_for.filter(|r| rounds.last().map(|l| l.round) != Some(*r)) {
            let record = art
                .report
                .round_records
                .iter()
                .find(|r| r.round == round)
                .ok_or_else(|| {
                    fail("probe_round_record", format!("no record for round {round}"))
                })?;
            let global = replica.engine.honest_contract().global_model().to_vec();
            let replay = off_chain.replay_round(tracer, path, config, record, &global)?;
            check_masks_cancel(&replay)?;
            rounds.push(replay);
        }
        replica.commit(tracer, path, block, height)?;
    }
    let dir = replica.finish(tracer);

    // ---- the cold audit ------------------------------------------------
    let (reopened, _) = tracer
        .probe("chain.log.open", path, || {
            DurableStore::<FlCall>::open(dir.path(), DurabilityConfig::default())
        })
        .map_err(|e| fail("probe_reopen", e.to_string()))?;
    let replayed = tracer
        .probe("fedchain.audit.replay", path, || {
            audit::replay_chain(reopened.store(), art.params.clone(), art.test_set.clone())
        })
        .map_err(|e| fail("probe_replay", e.to_string()))?;
    if !replayed.clean || reopened.store().height() != art.blocks.len() as u64 {
        return Err(fail(
            "probe_replay",
            "the probe's chain does not replay cleanly to the run's height",
        ));
    }

    let (wal, snapshots) =
        durable_bytes(dir.path()).map_err(|e| fail("probe_dir", e.to_string()))?;
    tracer.count("chain.durability.wal_bytes", wal as f64);
    tracer.count("chain.durability.snapshot_bytes", snapshots as f64);
    tracer.count(
        "fedchain.audit.blocks_per_s",
        ratio(
            art.blocks.len() as f64,
            tracer.seconds_of("fedchain.audit.replay"),
        ),
    );
    Ok((rounds, off_chain.finish(tracer)))
}

/// The off-chain half: the owners, what they were built with, and
/// counts over the op's rounds.
struct OffChain {
    owners: Vec<DataOwner>,
    keys: Owners,
    /// Pair-secret cache epoch: digest of the full advertised key set.
    epoch: [u8; 32],
    /// Training rows visited (shard rows × epochs, surviving owners).
    epoch_rows: usize,
    /// Pair secrets the owners asked their caches for.
    requested: usize,
    /// Pair secrets the caches had to derive (their growth).
    derived: usize,
}

impl OffChain {
    /// `DataOwner::new` per shard, then the key escrow if the run
    /// committed one. Keys and shares are seeded by the benchmark, not
    /// as the protocol seeds its own: they cost the same.
    fn new(
        tracer: &mut OpTracer<'_>,
        path: SpanId,
        config: &FlConfig,
        art: &OpArtefacts,
        world: &World,
    ) -> Result<Self, CheckFailure> {
        let n = config.num_owners;
        let shard_rows = world.shards.iter().map(|s| s.len()).max().unwrap_or(0);
        let shards = world.shards.clone();
        let owners: Vec<DataOwner> = tracer.probe("fedchain.owner.new", path, || {
            (0u32..)
                .zip(shards)
                .map(|(id, shard)| {
                    DataOwner::new(id, shard, config.train, config.frac_bits, PROBE_KEY_SEED)
                })
                .collect()
        });
        let publics: Vec<U256> = owners.iter().map(DataOwner::public_key).collect();

        let escrowed = art
            .blocks
            .iter()
            .flat_map(|b| &b.txs)
            .any(|tx| matches!(tx.call, FlCall::EscrowKeyShares { .. }));
        let escrows: Vec<Vec<Share>> = if !escrowed {
            Vec::new()
        } else {
            let shamir = Shamir::default();
            let threshold = config.escrow_threshold();
            let mut prg = ChaChaPrg::from_seed(&[0x5e; 32]);
            tracer
                .probe("crypto.shamir.escrow", path, || {
                    owners
                        .iter()
                        .map(|owner| owner.escrow_key_shares(&shamir, threshold, n, &mut prg))
                        .collect::<Result<_, _>>()
                })
                .map_err(|e| fail("probe_escrow", e.to_string()))?
        };
        let directory: Vec<(u32, U256)> = (0u32..).zip(publics.iter().copied()).collect();
        Ok(Self {
            owners,
            epoch: fl_crypto::key_epoch(&directory),
            keys: Owners {
                publics,
                escrows,
                shard_rows,
            },
            epoch_rows: 0,
            requested: 0,
            derived: 0,
        })
    }

    /// One round's off-chain half: local training, masking through the
    /// owners' pair-secret caches, plaintext ring encodings and the
    /// per-group aggregates the next global model is predicted from.
    fn replay_round(
        &mut self,
        tracer: &mut OpTracer<'_>,
        path: SpanId,
        config: &FlConfig,
        record: &RoundRecord,
        global: &[f64],
    ) -> Result<RoundReplay, CheckFailure> {
        let round = record.round;
        let (owners, publics, epoch) = (&mut self.owners, &self.keys.publics, self.epoch);
        let n = config.num_owners;
        let (features, classes) = (config.data.features, config.data.classes);
        let dim = (features + 1) * classes;
        let codec = FixedCodec::new(config.frac_bits);
        let groups = record.groups.clone();
        let dropped = config.dropped_in_round(round);
        let alive = |idx: usize| dropped.binary_search(&idx).is_err();
        let mut group_of = vec![0usize; n];
        for (j, group) in groups.iter().enumerate() {
            for &idx in group {
                group_of[idx] = j;
            }
        }
        let directories: Vec<Vec<(u32, U256)>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| (i as u32, publics[i])).collect())
            .collect();

        let span = tracer.open("probe.round", path);
        let updates: Vec<Option<Vec<f64>>> = tracer.probe("ml.logreg.train", span, || {
            owners
                .iter_mut()
                .enumerate()
                .map(|(idx, owner)| {
                    alive(idx).then(|| owner.local_update(global, features, classes))
                })
                .collect()
        });

        let cached = |owners: &[DataOwner]| -> usize {
            owners.iter().map(DataOwner::cached_pair_secrets).sum()
        };
        let cached_before = cached(owners);
        let masked: Vec<Option<Vec<u64>>> = tracer
            .probe("fedchain.owner.mask", span, || {
                owners
                    .iter_mut()
                    .zip(&updates)
                    .enumerate()
                    .map(|(idx, (owner, update))| {
                        update
                            .as_ref()
                            .map(|update| {
                                let directory = &directories[group_of[idx]];
                                owner.mask_update_cached(update, round, directory, epoch)
                            })
                            .transpose()
                    })
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| fail("probe_mask", e.to_string()))?;
        self.derived += cached(owners) - cached_before;
        for (idx, owner) in owners.iter().enumerate().filter(|(idx, _)| alive(*idx)) {
            self.requested += groups[group_of[idx]].len() - 1;
            self.epoch_rows += owner.shard_len() * config.train.epochs;
        }

        let (plain, group_models) = tracer.probe("fedchain.protocol.assemble", span, || {
            let plain: Vec<Option<Vec<u64>>> = updates
                .iter()
                .map(|u| u.as_ref().map(|u| codec.encode_vec(u)))
                .collect();
            let group_models: Vec<Option<Vec<f64>>> = groups
                .iter()
                .map(|group| {
                    let members: Vec<&Vec<u64>> =
                        group.iter().filter_map(|&i| plain[i].as_ref()).collect();
                    if members.is_empty() {
                        return None;
                    }
                    let mut sum = vec![0u64; dim];
                    for encoded in &members {
                        FixedCodec::ring_add_assign(&mut sum, encoded);
                    }
                    Some(
                        sum.iter()
                            .map(|&r| codec.decode_avg(r, members.len()))
                            .collect(),
                    )
                })
                .collect();
            (plain, group_models)
        });
        tracer.close(span);
        Ok(RoundReplay {
            round,
            groups,
            dropped,
            masked,
            plain,
            group_models,
        })
    }

    /// Records the counts; what the owners were built with lives on for
    /// the detail probes.
    fn finish(self, tracer: &mut OpTracer<'_>) -> Owners {
        tracer.count("ml.logreg.epoch_rows", self.epoch_rows as f64);
        tracer.count("crypto.dh.agreements", self.derived as f64);
        tracer.count(
            "fedchain.owner.pair_cache_hit_ratio",
            ratio(
                (self.requested - self.derived) as f64,
                self.requested as f64,
            ),
        );
        self.keys
    }
}

/// Secure aggregation, checked where nobody dropped: a group's masked
/// submissions must sum to its plaintext encodings, the pair masks
/// cancelling exactly in the ring. (Groups that lost members are checked
/// by the dropout-recovery probe.)
fn check_masks_cancel(replay: &RoundReplay) -> Result<(), CheckFailure> {
    let ring_sum = |members: &[usize], of: &[Option<Vec<u64>>]| {
        let mut sum: Vec<u64> = Vec::new();
        for encoded in members.iter().filter_map(|&i| of[i].as_ref()) {
            sum.resize(encoded.len(), 0);
            FixedCodec::ring_add_assign(&mut sum, encoded);
        }
        sum
    };
    for members in &replay.groups {
        let whole = members.iter().all(|&i| replay.alive(i));
        if whole && ring_sum(members, &replay.masked) != ring_sum(members, &replay.plain) {
            return Err(fail(
                "probe_masks_cancel",
                format!(
                    "round {}: the masks of group {members:?} do not cancel",
                    replay.round
                ),
            ));
        }
    }
    Ok(())
}

/// The on-chain half: a fresh engine, mempool and durable store that the
/// op's committed blocks are pushed through again.
struct Replica {
    engine: ConsensusEngine<FlContract>,
    pool: Mempool<FlCall>,
    durable: DurableStore<FlCall>,
    dir: ScratchDir,
    /// Heights at which the real run left a snapshot.
    snapshot_at: Vec<u64>,
    miners: usize,
    blocks: usize,
    txs: usize,
    rejected: usize,
    failed_views: u64,
    fsyncs: usize,
    snapshots: usize,
}

impl Replica {
    fn genesis(
        tracer: &mut OpTracer<'_>,
        path: SpanId,
        art: &OpArtefacts,
        world: &World,
        scratch: &Scratch,
    ) -> Result<Self, CheckFailure> {
        let miners = art.miners;
        let engine = tracer
            .probe("fedchain.contract.genesis", path, || {
                let contract = FlContract::genesis(art.params.clone(), world.test.clone());
                ConsensusEngine::new(
                    contract,
                    LeaderSchedule::round_robin((0..miners as u32).collect()),
                    &BTreeMap::new(),
                    EngineConfig::default(),
                )
            })
            .map_err(|e| fail("probe_engine", format!("{e:?}")))?;
        let dir = scratch
            .dir("probe")
            .map_err(|e| fail("scratch_dir", e.to_string()))?;
        let (durable, _) = tracer
            .probe("chain.durability.attach", path, || {
                DurableStore::<FlCall>::open(dir.path(), DurabilityConfig::default())
            })
            .map_err(|e| fail("probe_durable_open", e.to_string()))?;
        let snapshot_at = snapshot_heights(art.dir.path())
            .map_err(|e| fail("probe_snapshot_heights", e.to_string()))?;
        let widest = art.blocks.iter().map(|b| b.txs.len()).max().unwrap_or(0);
        Ok(Self {
            engine,
            pool: Mempool::new(widest.max(1) * 8),
            durable,
            dir,
            snapshot_at,
            miners,
            blocks: 0,
            txs: 0,
            rejected: 0,
            failed_views: 0,
            fsyncs: 0,
            snapshots: 0,
        })
    }

    /// Admits, seals and commits one block's transactions, appends the
    /// block to the durable store and snapshots where the real run did.
    fn commit(
        &mut self,
        tracer: &mut OpTracer<'_>,
        path: SpanId,
        block: &Block<FlCall>,
        height: usize,
    ) -> Result<(), CheckFailure> {
        let span = tracer.open("probe.block", path);
        let txs = block.txs.clone();
        let admission = tracer.probe("chain.mempool.admit", span, || self.pool.submit_batch(txs));
        self.txs += admission.admitted;
        self.rejected += admission.rejected.len();
        let bundle = tracer.probe("chain.merkle.root", span, || {
            self.pool.drain_bundle(usize::MAX)
        });
        let commit = tracer
            .probe("chain.consensus.commit", span, || {
                self.engine.commit_bundle(&bundle)
            })
            .map_err(|e| fail("probe_commit", format!("block {height}: {e:?}")))?;
        self.blocks += 1;
        self.failed_views += commit.attempts - 1;
        // Same transactions, same state: the replayed block must carry
        // the committed block's transaction and state roots.
        let committed = self
            .engine
            .store_of(0)
            .and_then(|s| s.block_at(height as u64))
            .filter(|b| {
                b.header.tx_root == block.header.tx_root
                    && b.header.state_root == block.header.state_root
            })
            .ok_or_else(|| {
                fail(
                    "probe_block_roots",
                    format!("block {height}: the replayed commit produced different roots"),
                )
            })?;

        tracer
            .probe("chain.durability.append", span, || {
                self.durable.append(committed)
            })
            .map_err(|e| fail("probe_append", e.to_string()))?;
        self.fsyncs += 1;
        if self.snapshot_at.contains(&self.durable.store().height()) {
            tracer
                .probe("chain.durability.snapshot", span, || {
                    let state = self.engine.honest_contract().snapshot_state();
                    self.durable.write_snapshot(&state)
                })
                .map_err(|e| fail("probe_snapshot", e.to_string()))?;
            self.snapshots += 1;
        }
        tracer.close(span);
        Ok(())
    }

    /// Records the counts and lets go of everything but the directory.
    fn finish(self, tracer: &mut OpTracer<'_>) -> ScratchDir {
        for (name, value) in [
            ("chain.mempool.txs", self.txs),
            ("chain.mempool.rejected", self.rejected),
            ("chain.consensus.reexecutions", self.blocks * self.miners),
            ("chain.consensus.failed_views", self.failed_views as usize),
            ("chain.durability.fsyncs", self.fsyncs),
            ("chain.durability.snapshots", self.snapshots),
        ] {
            tracer.count(name, value as f64);
        }
        self.dir
    }
}
