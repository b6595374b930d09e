//! `probe.detail`: one layer's primitive at a time, on the traced op's
//! own artefacts. These spans nest inside work `probe.path` already
//! timed, so they never count towards coverage.

use std::collections::BTreeMap;
use std::hint::black_box;

use fedchain::audit;
use fedchain::config::{FlConfig, SvMethod};
use fedchain::contract_fl::AccuracyUtility;
use fedchain::{FlCall, FlContract};
use fl_chain::block::Block;
use fl_chain::codec::{Decode, Encode};
use fl_chain::contract::{SmartContract, TxContext};
use fl_crypto::dh::DhGroup;
use fl_crypto::dropout::{recover_dropout_set, DroppedParty};
use fl_crypto::sha256::sha256;
use fl_crypto::shamir::Shamir;
use fl_crypto::PairwiseMasker;
use numeric::{FixedCodec, Matrix, U256};
use shapley::estimator::{Exact, Stratified, SvEstimate, SvEstimator};
use shapley::group::GroupModelGame;
use shapley::hierarchy::cohort_stream;
use shapley::stratified::StratifiedConfig;
use shapley::utility::{CachedUtility, ModelUtility, RestrictedGame};

use super::{call_kind, fail, Owners, RoundReplay};
use crate::op::{CheckFailure, OpArtefacts};
use crate::stats::ratio;
use crate::trace::{OpTracer, SpanId};

/// Modular exponentiations timed for `numeric.uint.modexp_us`.
const MODEXP_REPS: usize = 64;
/// Utility evaluations timed for `shapley.utility.eval_us`.
const UTILITY_REPS: usize = 16;
/// Exact group values may differ from the chain's by this much.
const SV_TOLERANCE: f64 = 1e-9;
/// Floating-point operations the GEMM probe aims for.
const GEMM_TARGET_FLOP: f64 = 2.0e7;
/// Bytes hashed for `crypto.sha256.mib_per_s`.
const SHA_BYTES: usize = 1 << 20;

/// What every detail probe is handed.
struct Detail<'a> {
    span: SpanId,
    config: &'a FlConfig,
    art: &'a OpArtefacts,
    rounds: &'a [RoundReplay],
    owners: &'a Owners,
    group: DhGroup,
}

impl Detail<'_> {
    fn dim(&self) -> usize {
        (self.config.data.features + 1) * self.config.data.classes
    }

    fn utility(&self) -> AccuracyUtility {
        let data = &self.config.data;
        AccuracyUtility::new(&self.art.test_set, data.features, data.classes)
    }
}

pub(super) fn probe(
    tracer: &mut OpTracer<'_>,
    span: SpanId,
    config: &FlConfig,
    art: &OpArtefacts,
    rounds: &[RoundReplay],
    owners: &Owners,
) -> Result<(), CheckFailure> {
    let detail = Detail {
        span,
        config,
        art,
        rounds,
        owners,
        group: DhGroup::simulation_256(),
    };
    detail.numeric(tracer);
    let pair_keys = detail.key_agreement(tracer)?;
    detail.mask_expansion(tracer, &pair_keys);
    detail.dropout_recovery(tracer)?;
    detail.sha256(tracer);
    detail.estimator(tracer)?;
    detail.utility_evaluation(tracer);
    detail.contract_replica(tracer)?;
    detail.codec(tracer)?;
    detail.fast_sync(tracer)
}

impl Detail<'_> {
    /// GEMM at the shape local training multiplies — one owner's shard
    /// (rows × features+1) by the weights (features+1 × classes) — and
    /// the modular exponentiation under every DH agreement.
    fn numeric(&self, tracer: &mut OpTracer<'_>) {
        let (inner, classes) = (self.config.data.features + 1, self.config.data.classes);
        let rows = self.owners.shard_rows.max(1);
        let pattern = |len: usize, step: usize| -> Vec<f64> {
            (0..len)
                .map(|i| ((i * step + 7) % 97) as f64 * 0.01 - 0.4)
                .collect()
        };
        let a = Matrix::from_vec(rows, inner, pattern(rows * inner, 31));
        let b = Matrix::from_vec(inner, classes, pattern(inner * classes, 17));
        let flop = 2.0 * (rows * inner * classes) as f64;
        let reps = (GEMM_TARGET_FLOP / flop).ceil().max(1.0);
        tracer.probe("numeric.linalg.gemm", self.span, || {
            for _ in 0..reps as usize {
                black_box(black_box(&a).matmul(black_box(&b)));
            }
        });
        tracer.count(
            "numeric.linalg.gemm_gflops",
            ratio(flop * reps * 1e-9, tracer.seconds_of("numeric.linalg.gemm")),
        );

        let keys = &self.owners.publics;
        tracer.probe("numeric.uint.modexp", self.span, || {
            for i in 0..MODEXP_REPS {
                let (base, exp) = (&keys[i % keys.len()], &keys[(i + 1) % keys.len()]);
                black_box(base.mod_pow(exp, &self.group.p));
            }
        });
        tracer.count(
            "numeric.uint.modexp_us",
            tracer.seconds_of("numeric.uint.modexp") / MODEXP_REPS as f64 * 1e6,
        );
    }

    /// The agreements a pair-secret cache lets through: each (owner,
    /// peer) pair is derived the first round the two share a group,
    /// once. An agreement costs the same under any private key, so every
    /// owner's side is played by one key of the benchmark's own against
    /// the owners' advertised public keys.
    fn key_agreement(
        &self,
        tracer: &mut OpTracer<'_>,
    ) -> Result<BTreeMap<(usize, usize), [u8; 32]>, CheckFailure> {
        let publics = &self.owners.publics;
        let private = self.group.keypair_from_seed(&[0x5e; 32]).private;
        let mut pair_keys: BTreeMap<(usize, usize), [u8; 32]> = BTreeMap::new();
        for replay in self.rounds {
            for members in &replay.groups {
                for &me in members.iter().filter(|&&i| replay.alive(i)) {
                    let fresh: Vec<usize> = members
                        .iter()
                        .copied()
                        .filter(|&peer| peer != me && !pair_keys.contains_key(&(me, peer)))
                        .collect();
                    if fresh.is_empty() {
                        continue;
                    }
                    let peer_keys: Vec<U256> = fresh.iter().map(|&p| publics[p]).collect();
                    let derived = tracer
                        .probe("crypto.dh.agree", self.span, || {
                            self.group.shared_keys_batch(&private, &peer_keys)
                        })
                        .map_err(|e| fail("probe_dh_agree", e.to_string()))?;
                    pair_keys.extend(fresh.into_iter().map(|peer| (me, peer)).zip(derived));
                }
            }
        }
        Ok(pair_keys)
    }

    /// Every pair mask a surviving owner expands, every round.
    fn mask_expansion(
        &self,
        tracer: &mut OpTracer<'_>,
        pair_keys: &BTreeMap<(usize, usize), [u8; 32]>,
    ) {
        let dim = self.dim();
        let mut words = 0usize;
        for replay in self.rounds {
            tracer.probe("crypto.masking.expand", self.span, || {
                for members in &replay.groups {
                    for &me in members.iter().filter(|&&i| replay.alive(i)) {
                        for &peer in members.iter().filter(|&&p| p != me) {
                            let masker = PairwiseMasker::new(pair_keys[&(me, peer)]);
                            words += black_box(masker.mask_for_round(replay.round, dim)).len();
                        }
                    }
                }
            });
        }
        tracer.count("crypto.masking.bytes", (words * 8) as f64);
    }

    /// Dropout recovery, per group that lost members: pool
    /// threshold-many escrow shares per dropped key, reconstruct, strip
    /// the residual masks from the survivors' partial sum — which must
    /// leave exactly the survivors' plaintext ring sum.
    fn dropout_recovery(&self, tracer: &mut OpTracer<'_>) -> Result<(), CheckFailure> {
        let shamir = Shamir::default();
        let threshold = self.config.escrow_threshold();
        let Owners {
            publics, escrows, ..
        } = self.owners;
        let mut recoveries = 0usize;
        for replay in self.rounds.iter().filter(|r| !r.dropped.is_empty()) {
            let providers: Vec<usize> = (0..publics.len())
                .filter(|&i| replay.alive(i))
                .take(threshold)
                .collect();
            for members in &replay.groups {
                let (kept, mut gone): (Vec<usize>, Vec<usize>) =
                    members.iter().partition(|&&i| replay.alive(i));
                if gone.is_empty() || kept.is_empty() {
                    continue;
                }
                gone.sort_unstable();
                let ring_sum = |of: &[Option<Vec<u64>>]| {
                    let mut sum = vec![0u64; self.dim()];
                    for &s in &kept {
                        FixedCodec::ring_add_assign(&mut sum, of[s].as_ref().expect("survivor"));
                    }
                    sum
                };
                let mut partial = ring_sum(&replay.masked);
                let dropped: Vec<DroppedParty> = gone
                    .iter()
                    .map(|&d| DroppedParty {
                        id: d as u32,
                        advertised_public: publics[d],
                        shares: providers.iter().map(|&p| escrows[d][p].clone()).collect(),
                    })
                    .collect();
                let survivors: Vec<(u32, U256)> =
                    kept.iter().map(|&s| (s as u32, publics[s])).collect();
                tracer
                    .probe("crypto.dropout.recover", self.span, || {
                        recover_dropout_set(
                            &shamir,
                            &self.group,
                            &mut partial,
                            &dropped,
                            &survivors,
                            threshold,
                            replay.round,
                        )
                    })
                    .map_err(|e| fail("probe_recover", e.to_string()))?;
                if partial != ring_sum(&replay.plain) {
                    return Err(fail(
                        "probe_recover",
                        format!(
                            "round {}: stripped sum differs from the survivors' plaintext sum",
                            replay.round
                        ),
                    ));
                }
                recoveries += gone.len();
            }
        }
        tracer.count("crypto.dropout.recoveries", recoveries as f64);
        Ok(())
    }

    fn sha256(&self, tracer: &mut OpTracer<'_>) {
        let buffer: Vec<u8> = (0..SHA_BYTES).map(|i| (i * 131 + 17) as u8).collect();
        tracer.probe("crypto.sha256", self.span, || {
            black_box(sha256(black_box(&buffer)))
        });
        tracer.count(
            "crypto.sha256.mib_per_s",
            ratio(
                SHA_BYTES as f64 / (1024.0 * 1024.0),
                tracer.seconds_of("crypto.sha256"),
            ),
        );
    }

    /// Each round's coalition game(s) through the configured estimator,
    /// over the group models the path probe aggregated: one flat game,
    /// or one game per cohort plus the second-level game over cohort
    /// means. Exact flat values must be the round record's.
    fn estimator(&self, tracer: &mut OpTracer<'_>) -> Result<(), CheckFailure> {
        let (k, m) = (self.config.num_cohorts, self.config.num_groups);
        let method = self.config.sv_method;
        let mut estimates: Vec<SvEstimate> = Vec::new();
        for replay in self.rounds {
            // Not the contract's private sampling seed: sampled values
            // differ from the chain's, their cost does not.
            let seed = self.config.permutation_seed ^ replay.round;
            let models: Vec<Vec<f64>> = replay
                .group_models
                .iter()
                .map(|g| g.clone().unwrap_or_else(|| vec![0.0; self.dim()]))
                .collect();
            let surviving_of = |groups: std::ops::Range<usize>| -> Vec<usize> {
                let start = groups.start;
                groups
                    .filter(|&j| replay.group_models[j].is_some())
                    .map(|j| j - start)
                    .collect()
            };
            let span = tracer.open("shapley.estimator.estimate", self.span);
            let utility = self.utility();
            if k == 1 {
                let surviving = surviving_of(0..models.len());
                estimates.push(estimate_game(method, seed, &models, surviving, &utility));
            } else {
                let mut cohort_models: Vec<Vec<f64>> = Vec::with_capacity(k);
                let mut alive_cohorts: Vec<usize> = Vec::new();
                for c in 0..k {
                    let cohort = &models[c * m..(c + 1) * m];
                    let surviving = surviving_of(c * m..(c + 1) * m);
                    if surviving.is_empty() {
                        cohort_models.push(vec![0.0; self.dim()]);
                        continue;
                    }
                    let kept: Vec<Vec<f64>> =
                        surviving.iter().map(|&j| cohort[j].clone()).collect();
                    cohort_models.push(numeric::linalg::mean_vectors(&kept));
                    alive_cohorts.push(c);
                    let stream = cohort_stream(seed, c as u64);
                    estimates.push(estimate_game(method, stream, cohort, surviving, &utility));
                }
                estimates.push(estimate_game(
                    method,
                    seed,
                    &cohort_models,
                    alive_cohorts,
                    &utility,
                ));
            }
            tracer.close(span);

            if k == 1 && method == SvMethod::GroupExact {
                let record = &self.art.report.round_records;
                let record = record.iter().find(|r| r.round == replay.round);
                let estimate = estimates.last().expect("just pushed");
                let mut values = estimate.values.iter();
                let replayed = record.is_some_and(|record| {
                    record.per_group_sv.iter().zip(&replay.group_models).all(
                        |(committed, model)| match model {
                            Some(_) => values
                                .next()
                                .is_some_and(|v| (v - committed).abs() <= SV_TOLERANCE),
                            None => *committed == 0.0,
                        },
                    )
                });
                if !replayed {
                    return Err(fail(
                        "probe_group_sv",
                        format!(
                            "round {}: replayed exact group values differ from the record",
                            replay.round
                        ),
                    ));
                }
            }
        }
        let sum = |f: fn(&SvEstimate) -> usize| estimates.iter().map(f).sum::<usize>() as f64;
        let hits = sum(|e| e.diagnostics.cache_hits);
        tracer.count("shapley.estimator.evals", sum(|e| e.utility_evaluations));
        tracer.count("shapley.estimator.samples", sum(|e| e.diagnostics.samples));
        tracer.count(
            "shapley.utility.cache_hit_ratio",
            ratio(hits, hits + sum(|e| e.diagnostics.cache_misses)),
        );
        Ok(())
    }

    /// One accuracy pass of a group model over the test design.
    fn utility_evaluation(&self, tracer: &mut OpTracer<'_>) {
        let utility = self.utility();
        let model = self
            .rounds
            .last()
            .and_then(|r| r.group_models.iter().flatten().next().cloned())
            .unwrap_or_else(|| vec![0.0; self.dim()]);
        tracer.probe("shapley.utility.eval", self.span, || {
            for _ in 0..UTILITY_REPS {
                black_box(utility.of_model(black_box(&model)));
            }
        });
        tracer.count(
            "shapley.utility.eval_us",
            tracer.seconds_of("shapley.utility.eval") / UTILITY_REPS as f64 * 1e6,
        );
    }

    /// One fresh contract replica executing the committed transactions,
    /// a span per run of same-kind calls, and the state digest after
    /// every block — which must be the committed state root.
    fn contract_replica(&self, tracer: &mut OpTracer<'_>) -> Result<(), CheckFailure> {
        let mut replica = FlContract::genesis(self.art.params.clone(), self.art.test_set.clone());
        let mut rejected = 0usize;
        for block in &self.art.blocks {
            let mut txs = block.txs.iter().enumerate().peekable();
            while let Some((_, first)) = txs.peek() {
                let kind = call_kind(&first.call);
                tracer.probe(kind, self.span, || {
                    while let Some((tx_index, tx)) =
                        txs.next_if(|(_, tx)| call_kind(&tx.call) == kind)
                    {
                        let ctx = TxContext {
                            block_height: block.header.height,
                            view: block.header.view,
                            sender: tx.sender,
                            tx_index,
                        };
                        rejected += usize::from(replica.execute(&ctx, &tx.call).is_err());
                    }
                });
            }
            let digest = tracer.probe("fedchain.contract.state_digest", self.span, || {
                replica.state_digest()
            });
            if digest != block.header.state_root {
                return Err(fail(
                    "probe_state_root",
                    format!(
                        "replica diverged from the committed root at block {}",
                        block.header.height
                    ),
                ));
            }
        }
        tracer.count("fedchain.contract.rejected_txs", rejected as f64);
        Ok(())
    }

    fn codec(&self, tracer: &mut OpTracer<'_>) -> Result<(), CheckFailure> {
        let blocks = &self.art.blocks;
        let encoded: Vec<Vec<u8>> = tracer.probe("chain.codec.encode", self.span, || {
            blocks.iter().map(Encode::encode).collect()
        });
        tracer.count(
            "chain.codec.block_bytes",
            encoded.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let decoded: Vec<Block<FlCall>> = tracer
            .probe("chain.codec.decode", self.span, || {
                encoded
                    .iter()
                    .map(|bytes| Block::<FlCall>::decode(bytes))
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| fail("probe_decode", format!("{e:?}")))?;
        if decoded != *blocks {
            return Err(fail(
                "probe_decode",
                "decoded blocks differ from the committed ones",
            ));
        }
        Ok(())
    }

    /// The snapshot path of the audit, on the real run's directory.
    fn fast_sync(&self, tracer: &mut OpTracer<'_>) -> Result<(), CheckFailure> {
        let art = self.art;
        let synced = tracer
            .probe("fedchain.audit.fast_sync", self.span, || {
                audit::fast_sync(art.dir.path(), art.params.clone(), art.test_set.clone())
            })
            .map_err(|e| fail("probe_fast_sync", e.to_string()))?;
        let live_tip = art.blocks.last().map(|b| b.header.digest());
        if !synced.audit.clean || Some(synced.tip_digest) != live_tip {
            return Err(fail(
                "probe_fast_sync",
                "snapshot sync does not certify the live tip",
            ));
        }
        Ok(())
    }
}

/// The contract's estimator dispatch, from outside: the group-model
/// game restricted to `surviving`, exact or stratified (the latter
/// behind the memo table whose hit/miss counters it reports).
fn estimate_game(
    method: SvMethod,
    seed: u64,
    models: &[Vec<f64>],
    surviving: Vec<usize>,
    utility: &AccuracyUtility,
) -> SvEstimate {
    let full = GroupModelGame::new(models, utility);
    let game = RestrictedGame::new(&full, surviving);
    match method {
        SvMethod::GroupExact => Exact.estimate(&game),
        SvMethod::Stratified {
            samples_per_stratum,
        } => {
            let cached = CachedUtility::new(&game);
            let mut estimate = Stratified {
                config: StratifiedConfig {
                    samples_per_stratum: samples_per_stratum as usize,
                    seed,
                },
            }
            .estimate(&cached);
            let stats = cached.stats();
            estimate.diagnostics.cache_hits = stats.hits;
            estimate.diagnostics.cache_misses = stats.misses;
            estimate
        }
        SvMethod::MonteCarlo { .. } => {
            unreachable!("no workload configures Monte-Carlo evaluation")
        }
    }
}
