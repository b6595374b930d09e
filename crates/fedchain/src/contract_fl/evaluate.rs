//! Round evaluation: Algorithm 1 over the round's plan — key recovery,
//! per-group aggregation, the model reductions, estimator dispatch —
//! and the test-accuracy utility it scores models with.

use std::sync::Arc;

use fl_chain::contract::ExecutionOutcome;
use fl_chain::tx::AccountId;
use fl_crypto::dh::DhGroup;
use fl_crypto::dropout::{reconstruct_private_key, strip_dropped_set_masks};
use fl_crypto::shamir::{Shamir, Share};
use fl_ml::dataset::Dataset;
use fl_ml::LogisticModel;
use numeric::linalg::mean_vectors;
use numeric::stats::is_argmax;
use numeric::{par, FixedCodec, U256};
use shapley::estimator::{Exact, MonteCarlo, Stratified, SvEstimator};
use shapley::group::{argmax_settled, GroupModelGame};
use shapley::hierarchy::{compose, RoundPlan};
use shapley::monte_carlo::McConfig;
use shapley::stratified::StratifiedConfig;
use shapley::utility::{CachedUtility, ModelUtility};

use super::{
    CohortEvidence, FlContract, FlError, RecoveryEvidence, RoundPhase, RoundRecord, Section, Table,
};
use crate::config::SvMethod;

/// Derives the round's public sampling seed from the permutation seed.
///
/// A different multiplier than the grouping permutation's golden-ratio
/// stream, so the subsets a sampling estimator draws are not correlated
/// with the round's group assignment. Pure function of public on-chain
/// data — any miner or auditor re-derives it.
fn sampling_seed(permutation_seed: u64, round: u64) -> u64 {
    permutation_seed ^ round.wrapping_mul(0xd1b5_4a32_d192_ed03) ^ 0x5eed_5a3f_0e1e_57a7
}

/// The round's model reductions — per-cohort aggregate, then global
/// model — from the per-group survivor means.
///
/// `survivor_means[c]` holds the models of cohort `c`'s surviving groups
/// in group order (empty when the whole cohort dropped). Each cohort's
/// aggregate is the mean of its surviving group models (`None` for a
/// fully-dropped cohort); the global model is the mean of the surviving
/// cohort aggregates.
///
/// The contract calls this on mask-stripped group aggregates and the
/// protocol driver's next-model predictor on plaintext ring sums, so the
/// two cannot disagree on the reduction order.
///
/// **One-cohort rule**: with a single cohort the global model is that
/// cohort's aggregate itself, *not* `mean_vectors(&[aggregate])` —
/// `mean_vectors` accumulates from `+0.0`, which would turn a `-0.0`
/// coordinate into `+0.0` and change the state digest of every flat
/// round.
pub(crate) fn reduce_models(survivor_means: &[Vec<Vec<f64>>]) -> (Vec<Option<Vec<f64>>>, Vec<f64>) {
    let cohort_models: Vec<Option<Vec<f64>>> = survivor_means
        .iter()
        .map(|models| (!models.is_empty()).then(|| mean_vectors(models)))
        .collect();
    let global_model = match cohort_models.as_slice() {
        [Some(only)] => only.clone(),
        _ => {
            let alive: Vec<Vec<f64>> = cohort_models.iter().flatten().cloned().collect();
            mean_vectors(&alive)
        }
    };
    (cohort_models, global_model)
}

/// The group-mean rule: ring-sum the encodings of a group's survivors,
/// let `strip` take out whatever masks the sum still carries, then decode
/// the mean by the survivor count. `None` when no member survived — the
/// group has no model and leaves the game.
///
/// The contract calls this on masked submissions, stripping a dropped
/// member's residual masks; the protocol driver's next-model predictor
/// calls it on plaintext encodings, with nothing to strip. Both feed
/// [`reduce_models`], so the two agree on every step but the masks.
pub(crate) fn group_mean(
    codec: &FixedCodec,
    survivors: &[&[u64]],
    strip: impl FnOnce(&mut [u64]),
) -> Option<Vec<f64>> {
    let (first, rest) = survivors.split_first()?;
    let mut sum = first.to_vec();
    for encoded in rest {
        FixedCodec::ring_add_assign(&mut sum, encoded);
    }
    strip(&mut sum);
    let count = survivors.len();
    Some(sum.iter().map(|&r| codec.decode_avg(r, count)).collect())
}

/// Test-set-accuracy utility `u(W)` shared by the contract and the
/// off-chain analysis (Fig. 1/2 ground truth uses the same function).
///
/// The test set is conditioned into a prepared design **once** at
/// construction, and the model is linear, so the utility has a
/// [`ModelUtility::scores`] view: `scores(W) = X · W`, the row-major
/// test-set logits, and `X · mean_j(W_j) = mean_j(X · W_j)`. A GroupSV
/// round therefore pays one GEMM per *group* and the `2^m` coalitions
/// only average logits ([`shapley::group::GroupModelGame`]).
/// `of_scores` is the fraction of rows whose first-maximum logit is the
/// label — the tie rule of [`numeric::stats::argmax`], checked per row
/// by [`numeric::stats::is_argmax`]: equal logits resolve to the lowest
/// class index. Neither the softmax nor the
/// `1/|S|` scale can reorder a row, so no `exp` is evaluated. Hits add
/// up row by row, so there is an additive view too: the granule is one
/// row's logits, and the utility names each row's label
/// ([`ModelUtility::labels`]), so the game counts a coalition's hits
/// itself — screening each row's label-minus-rival logit differences in
/// `f32` and deciding the rows the screen leaves open in `f64`
/// ([`shapley::group`], "The label screen"). `of_scores` is the hits of
/// all rows, row-major, over the row count — [`is_argmax`] row by row,
/// the count's oracle — and `of_model` is `of_scores ∘ scores`.
///
/// Hits are counts, so a row may be settled
/// ([`ModelUtility::settled`]): given one row's logits under every
/// group model, the utility answers `1` when every group classifies the
/// row right and `0` when one wrong class beats the label under every
/// group, each by the margin [`shapley::group::argmax_settled`] proves
/// no coalition mean can erase; otherwise it answers nothing.
///
/// Caveat: the logits of a mean model and the mean of the members'
/// logits are equal as real numbers, not as floats, and softmax can
/// merge two logits closer than an ulp of their probabilities. A row
/// whose top two logits are that close could resolve differently from
/// the GEMM-then-softmax evaluation this replaced
/// ([`fl_ml::metrics::model_accuracy_design_reference`], kept as the
/// test and bench oracle). Every miner and auditor runs this same code,
/// so nothing on-chain can disagree; `tests/golden_digests.rs` is the
/// arbiter that recorded chains still replay.
#[derive(Debug, Clone)]
pub struct AccuracyUtility {
    test_design: fl_ml::Design,
    num_features: usize,
    num_classes: usize,
    /// `u(∅)`: the zero model's logits all tie, so it predicts class 0 —
    /// exactly what an untrained participant would deploy.
    empty: f64,
}

impl AccuracyUtility {
    /// Builds the utility over a held-out test set.
    pub fn new(test_set: &Dataset, num_features: usize, num_classes: usize) -> Self {
        let test_design = fl_ml::Design::new(test_set);
        let zeros = test_design.labels().iter().filter(|&&l| l == 0).count();
        Self {
            empty: zeros as f64 / test_design.len() as f64,
            test_design,
            num_features,
            num_classes,
        }
    }
}

impl ModelUtility for AccuracyUtility {
    fn of_model(&self, weights: &[f64]) -> f64 {
        self.of_scores(&self.scores(weights))
    }

    fn of_empty(&self) -> f64 {
        self.empty
    }

    fn scores(&self, weights: &[f64]) -> Vec<f64> {
        LogisticModel::from_flat(weights, self.num_features, self.num_classes)
            .logits_design(&self.test_design)
            .into_vec()
    }

    /// Every model's logits from one GEMM: the models side by side,
    /// `[W_1 | … | W_m]`, are one linear model of `m · classes` outputs,
    /// whose logits hold each test row's `m` rows of logits side by side —
    /// the layout [`ModelUtility::scores_many`] asks for. Column block `j`
    /// of `X · [W_1 | … | W_m]` is `X · W_j` to the bit: every element
    /// folds its own products in ascending `k` from `0.0` however the
    /// product tiles its columns ([`numeric::linalg`], "Determinism
    /// contract").
    fn scores_many(&self, models: &[Vec<f64>]) -> Vec<f64> {
        let (classes, width) = (self.num_classes, models.len() * self.num_classes);
        let mut side_by_side = vec![0.0; (self.num_features + 1) * width];
        for (j, w) in models.iter().enumerate() {
            let model = LogisticModel::from_flat(w, self.num_features, classes);
            let rows = model.weights().as_slice().chunks_exact(classes);
            for (out, row) in side_by_side.chunks_exact_mut(width).zip(rows) {
                out[j * classes..(j + 1) * classes].copy_from_slice(row);
            }
        }
        LogisticModel::from_flat(&side_by_side, self.num_features, width)
            .logits_design(&self.test_design)
            .into_vec()
    }

    fn of_scores(&self, mean_scores: &[f64]) -> f64 {
        debug_assert_eq!(mean_scores.len(), self.test_design.len() * self.num_classes);
        let rows = mean_scores.chunks_exact(self.num_classes);
        let rows = rows.zip(self.test_design.labels());
        let hits = rows.filter(|(row, &label)| is_argmax(row, label)).count();
        self.of_tally(hits as f64)
    }

    fn granule(&self) -> Option<usize> {
        Some(self.num_classes)
    }

    /// Each test row's label: a row's tally is whether its first maximum
    /// is its label, counted by the game.
    fn labels(&self) -> Option<&[usize]> {
        Some(self.test_design.labels())
    }

    /// `1` for a settled hit, `0` for a settled miss
    /// ([`argmax_settled`]).
    fn settled(&self, row: usize, members: &[&[f64]]) -> Option<f64> {
        argmax_settled(members, self.test_design.labels()[row]).map(f64::from)
    }

    fn of_tally(&self, hits: f64) -> f64 {
        hits / self.test_design.len() as f64
    }
}

/// Utility evaluations `method` asks of an `m`-player game.
fn evaluations(method: SvMethod, m: usize) -> usize {
    match method {
        SvMethod::GroupExact => 1 << m,
        SvMethod::MonteCarlo { permutations } => permutations as usize * m,
        SvMethod::Stratified {
            samples_per_stratum,
        } => 2 * m * m * samples_per_stratum as usize,
    }
}

impl FlContract {
    /// Reconstructs every dropped key from the first threshold-many
    /// verified shares (providers in ascending id — a pure function of the
    /// on-chain share set), checks it against the advertised public key and
    /// files it at its position. All fallible work happens before any
    /// state mutation, so a failed recovery leaves the round intact.
    fn recover_dropped_keys(
        &self,
        dh: &DhGroup,
        dropped: &[usize],
    ) -> Result<(Vec<Option<U256>>, Vec<RecoveryEvidence>), FlError> {
        let threshold = self.params().escrow_threshold;
        let shamir = Shamir::default();
        let mut recovered: Vec<Option<U256>> = vec![None; self.params().owners.len()];
        let mut evidence: Vec<RecoveryEvidence> = Vec::with_capacity(dropped.len());
        for &pos in dropped {
            let id = self.params().owners[pos];
            let failed = |reason: String| FlError::RecoveryFailed { owner: id, reason };
            let provided = self.recovery_shares.slots[pos]
                .as_ref()
                .ok_or_else(|| failed("no recovery shares on record".into()))?;
            let (providers, shares): (Vec<usize>, Vec<Share>) = (self.genesis.by_id.iter())
                .filter_map(|&p| Some((p, provided.slots[p].clone()?)))
                .take(threshold)
                .unzip();
            let advertised = self.keys.slots[pos]
                .as_ref()
                .ok_or_else(|| failed("no advertised public key".into()))?;
            let advertised = U256::from_be_bytes(advertised);
            let private = reconstruct_private_key(&shamir, dh, &shares, threshold, &advertised)
                .map_err(|e| failed(e.to_string()))?;
            recovered[pos] = Some(private);
            evidence.push(RecoveryEvidence {
                dropped: pos,
                providers,
            });
        }
        Ok((recovered, evidence))
    }

    /// Line 3 of Algorithm 1, survivor-restricted, over one group
    /// directory: each group's aggregate sums its *surviving* members'
    /// masked submissions; survivor-survivor masks cancel in the sum,
    /// and each dropped member's residual masks are stripped with its
    /// reconstructed key ([`group_mean`]). A group whose members all
    /// dropped has no model and leaves the game. Returns the surviving groups' models and
    /// indices, both in group order, or the first survivor whose
    /// submission or key the state lacks.
    fn aggregate_group_models(
        &self,
        groups: &[Vec<usize>],
        recovered: &[Option<U256>],
        dh: &DhGroup,
        codec: &FixedCodec,
        round: u64,
    ) -> Result<(Vec<Vec<f64>>, Vec<usize>), FlError> {
        let owners = &self.params().owners;
        let is_dropped = |i: usize| recovered[i].is_some();
        let mut group_models: Vec<Vec<f64>> = Vec::with_capacity(groups.len());
        let mut surviving_groups: Vec<usize> = Vec::new();
        for (j, g) in groups.iter().enumerate() {
            let alive: Vec<usize> = g.iter().copied().filter(|&i| !is_dropped(i)).collect();
            let submissions: Vec<&[u64]> = alive
                .iter()
                .map(|&i| {
                    let masked = self.submissions.slots[i].as_deref().map(Vec::as_slice);
                    masked.ok_or(FlError::MissingSubmission(owners[i]))
                })
                .collect::<Result<_, _>>()?;
            let mut group_dropped: Vec<(AccountId, U256)> = g
                .iter()
                .filter_map(|&i| Some((owners[i], recovered[i]?)))
                .collect();
            let model = if group_dropped.is_empty() {
                group_mean(codec, &submissions, |_| {})
            } else {
                group_dropped.sort_unstable_by_key(|(id, _)| *id);
                let survivor_keys: Vec<(AccountId, U256)> = alive
                    .iter()
                    .map(|&i| {
                        let key = self.keys.slots[i]
                            .as_ref()
                            .ok_or(FlError::MissingKey(owners[i]))?;
                        Ok((owners[i], U256::from_be_bytes(key)))
                    })
                    .collect::<Result<_, FlError>>()?;
                group_mean(codec, &submissions, |sum| {
                    strip_dropped_set_masks(dh, sum, &group_dropped, &survivor_keys, round)
                })
            };
            if let Some(model) = model {
                surviving_groups.push(j);
                group_models.push(model);
            }
        }
        Ok((group_models, surviving_groups))
    }

    /// Completes a round on the survivor set — Algorithm 1 over the
    /// round's [`RoundPlan`], the full-cohort round being the special
    /// case `dropped = []` (positions, ascending).
    ///
    /// Reconstructs the dropped keys (if any); then, per cohort of the
    /// plan, strips the residual masks per group and runs the configured
    /// estimator over the group-model game of the surviving groups, on
    /// the cohort's own seed stream (one `numeric::par` slot
    /// per cohort, index-pure so the fan-out is bit-identical across
    /// thread caps); [`reduce_models`] folds the group models into the
    /// cohort aggregates and the new global model.
    ///
    /// With `num_cohorts > 1` a second-level coalition game over the
    /// cohort aggregates prices the cohorts and the two levels compose
    /// into global per-owner contributions
    /// ([`shapley::hierarchy::compose`]); a cohort whose members all
    /// dropped has no aggregate, stays out of that game, and its members
    /// score exactly zero. The skip
    /// keys on the static `num_cohorts`, not on how many cohorts
    /// survived: a one-cohort round *is* the flat game — `compose`
    /// passes its within-cohort values through verbatim, playing a
    /// second level would add utility evaluations to the digest-bound
    /// record, and its [`RoundRecord::cohorts`] stays empty — while a
    /// sharded round with one surviving cohort still plays its
    /// one-player second level.
    ///
    /// Everything that can fail runs before the first write: a failed
    /// key recovery, a survivor without a submission or key on record
    /// ([`FlError::MissingSubmission`], [`FlError::MissingKey`]; the
    /// first in cohort order) and a layout the parameters cannot build
    /// ([`FlError::Layout`]) return with the state untouched.
    pub(super) fn finish_round(
        &mut self,
        round: u64,
        dropped: &[usize],
    ) -> Result<ExecutionOutcome, FlError> {
        let n = self.params().owners.len();
        let m = self.params().num_groups;
        let k = self.params().num_cohorts;
        let codec = FixedCodec::new(self.params().frac_bits);

        let dh = DhGroup::simulation_256();
        let (recovered, evidence) = self.recover_dropped_keys(&dh, dropped)?;
        let is_dropped = |i: usize| recovered[i].is_some();
        let dropped_pos: Vec<usize> = (0..n).filter(|&i| is_dropped(i)).collect();
        let survivor_pos: Vec<usize> = (0..n).filter(|&i| !is_dropped(i)).collect();

        // Lines 1–2 of Algorithm 1: the public layout of the round, a
        // pure function of digest-bound parameters, so every miner and
        // every auditor derives the identical partition. It covers the
        // *full* owner set — the layout is fixed at round start;
        // dropping out does not reshuffle anyone.
        let plan = RoundPlan::new(self.params().permutation_seed, round, n, k, m)
            .map_err(FlError::Layout)?;

        let utility = &self.genesis.utility;
        let method = self.params().sv_method;

        struct CohortOutcome {
            /// The surviving groups' models, in group order.
            group_models: Vec<Vec<f64>>,
            surviving_groups: Vec<usize>,
            per_group_sv: Vec<f64>,
            utility_evaluations: usize,
            samples: usize,
        }

        // Lines 3–6 (generalized), fanned out one slot per cohort. Each
        // slot only reads cohort-indexed inputs, so slot `c` is a pure
        // function of `c` regardless of the thread cap. Every miner
        // derives the same sampling seed from the cohort's public seed
        // stream and the round number, so sampling estimators
        // re-execute bit-identically.
        //
        // A cohort costs the ring sum of its members' submissions, the
        // test-set product over its group models and the estimator's coalition
        // walks over those scores, each row's label-minus-rival
        // differences screened at half an element apiece
        // (`GroupModelGame::eval_flops`): `stream_churn`'s four 8-owner
        // cohorts together are a thirteenth of a lease, `sharded_1k`'s
        // thirty-two are three.
        let test_rows = utility.test_design.len();
        let rivals = self.params().num_classes.saturating_sub(1).max(1);
        let model_dim = self.params().model_dim;
        let cohort_flops = n.div_ceil(k) * model_dim
            + m * test_rows * model_dim * 2
            + evaluations(method, m) * test_rows * rivals * (m / 2 + 2) / 2;
        let this: &Self = self;
        let mut per_cohort: Vec<CohortOutcome> = par::par_map(
            plan.groups(),
            par::items_per_lease(cohort_flops),
            |c, groups_c| {
                let (group_models, surviving_groups) =
                    this.aggregate_group_models(groups_c, &recovered, &dh, &codec, round)?;
                let (per_group_sv, utility_evaluations, samples) = Self::estimate_alive(
                    method,
                    sampling_seed(plan.seeds()[c], round),
                    groups_c.len(),
                    &surviving_groups,
                    &group_models,
                    utility,
                );
                Ok(CohortOutcome {
                    group_models,
                    surviving_groups,
                    per_group_sv,
                    utility_evaluations,
                    samples,
                })
            },
        )
        .into_iter()
        .collect::<Result<_, FlError>>()?;

        let survivor_means: Vec<Vec<Vec<f64>>> = per_cohort
            .iter_mut()
            .map(|out| std::mem::take(&mut out.group_models))
            .collect();
        let (cohort_models, global_model) = reduce_models(&survivor_means);

        // Second level (sharded rounds only, see above): the coalition
        // game over cohort aggregate models, restricted to cohorts with
        // at least one survivor, under the round's own (un-streamed)
        // sampling seed — and the record's per-cohort section, which
        // binds each cohort's membership, survivor set, and second-level
        // value into the state digest.
        let mut per_cohort_sv = vec![0.0f64; k];
        let mut cohort_evidence: Vec<CohortEvidence> = Vec::new();
        let mut total_evals = 0;
        let mut total_samples = 0;
        if k > 1 {
            let (alive_cohorts, alive_models): (Vec<usize>, Vec<Vec<f64>>) = cohort_models
                .into_iter()
                .enumerate()
                .filter_map(|(c, model)| Some((c, model?)))
                .unzip();
            (per_cohort_sv, total_evals, total_samples) = Self::estimate_alive(
                method,
                sampling_seed(self.params().permutation_seed, round),
                k,
                &alive_cohorts,
                &alive_models,
                utility,
            );
            for (c, out) in per_cohort.iter().enumerate() {
                let members = plan.cohorts()[c].clone();
                let (dropped, survivors) = members.iter().partition(|&&i| is_dropped(i));
                cohort_evidence.push(CohortEvidence {
                    members,
                    survivors,
                    dropped,
                    sv_method: method,
                    sv: per_cohort_sv[c],
                    utility_evaluations: out.utility_evaluations,
                    samples: out.samples,
                });
            }
        }

        // Line 7, then the two-level composition: each group's value
        // splits uniformly among the group's *survivors*, and the
        // within-cohort values are scaled by the cohort's second-level
        // value. Dropped owners are excluded from the within vectors so
        // even the uniform zero-total fallback can never pay them; they
        // score exactly zero.
        let mut within: Vec<Vec<f64>> = Vec::with_capacity(k);
        let mut within_owners: Vec<Vec<usize>> = Vec::with_capacity(k);
        for (out, groups_c) in per_cohort.iter().zip(plan.groups()) {
            let mut vals = Vec::new();
            let mut owners_of = Vec::new();
            for &j in &out.surviving_groups {
                let alive: Vec<usize> = groups_c[j]
                    .iter()
                    .copied()
                    .filter(|&i| !is_dropped(i))
                    .collect();
                let share = out.per_group_sv[j] / alive.len() as f64;
                for idx in alive {
                    vals.push(share);
                    owners_of.push(idx);
                }
            }
            within.push(vals);
            within_owners.push(owners_of);
        }
        let composed = compose(&within, &per_cohort_sv).map_err(FlError::Layout)?;

        let mut per_owner_sv = vec![0.0f64; n];
        for (vals, owners_of) in composed.iter().zip(&within_owners) {
            for (&v, &idx) in vals.iter().zip(owners_of) {
                per_owner_sv[idx] = v;
            }
        }
        // Id order on both sides; a dropped owner's `0.0` keeps its total (never `-0.0`).
        for (total, &p) in self.contributions.values_mut().zip(&self.genesis.by_id) {
            *total += per_owner_sv[p];
        }

        let global_accuracy = utility.of_model(&global_model);
        *self.global_model = global_model;

        // The record's `groups`/`per_group_sv` sections concatenate the
        // cohorts' groups and values in plan order.
        let flat_groups = plan.groups().concat();
        let mut flat_group_sv: Vec<f64> = Vec::with_capacity(k * m);
        for out in &per_cohort {
            flat_group_sv.extend(&out.per_group_sv);
            total_evals += out.utility_evaluations;
            total_samples += out.samples;
        }

        let event = format!(
            "evaluate: round {round}, k={k} cohorts, m={m}, method {}, survivors {}/{n}, \
             global acc {global_accuracy:.4}, group SVs {flat_group_sv:?}",
            method.name(),
            survivor_pos.len(),
        );
        let gas = self.gas.charge(
            self.params().model_dim,
            (total_evals + dropped_pos.len() * survivor_pos.len()) * self.params().model_dim,
        );
        self.history.push(Arc::new(RoundRecord {
            round,
            sv_method: method,
            groups: flat_groups,
            survivors: survivor_pos,
            dropped: dropped_pos,
            recovery: evidence,
            per_group_sv: flat_group_sv,
            per_owner_sv,
            global_accuracy,
            utility_evaluations: total_evals,
            samples: total_samples,
            cohorts: cohort_evidence,
        }));
        self.history_leaves.push(Default::default());
        self.submissions = Section::new(Table::new(n));
        self.recovery_shares = Table::new(n);
        self.phase = RoundPhase::Submitting;
        self.current_round += 1;

        Ok(ExecutionOutcome::event(event, gas))
    }

    /// Plays the coalition game over the `alive` players' `models` (one
    /// each, ascending) with the configured estimator and returns
    /// `(values, utility evaluations, samples)` for all `players`. The
    /// values sit at the players' own positions: a player outside `alive`
    /// scores `0.0`, and with nobody alive no game is played at all.
    ///
    /// The game holds the alive players only. A coalition sums its
    /// members in ascending index, so it values every coalition as the
    /// game over all `players` restricted to the alive ones would, bit
    /// for bit — and no absent player's scores keep a test row from
    /// settling.
    ///
    /// The method is on-chain configuration, and this is the single
    /// point where it meets the estimator layer, so every miner — and
    /// every later auditor replaying the chain — resolves the identical
    /// estimator with the identical seed. Monte-Carlo revisits coalitions
    /// one at a time, so its game is wrapped in [`CachedUtility`]: each
    /// distinct coalition model pays for one accuracy pass, with
    /// bit-identical values. `Stratified` dedups the coalitions its
    /// samples name itself and values each once, and the exact path
    /// visits each coalition exactly once; both skip the cache.
    fn estimate_alive(
        method: SvMethod,
        seed: u64,
        players: usize,
        alive: &[usize],
        models: &[Vec<f64>],
        utility: &AccuracyUtility,
    ) -> (Vec<f64>, usize, usize) {
        let mut values = vec![0.0f64; players];
        if alive.is_empty() {
            return (values, 0, 0);
        }
        let game = GroupModelGame::new(models, utility);
        let estimate = match method {
            SvMethod::GroupExact => Exact.estimate(&game),
            SvMethod::MonteCarlo { permutations } => MonteCarlo {
                config: McConfig {
                    permutations: permutations as usize,
                    seed,
                },
            }
            .estimate(&CachedUtility::new(&game)),
            SvMethod::Stratified {
                samples_per_stratum,
            } => Stratified {
                config: StratifiedConfig {
                    samples_per_stratum: samples_per_stratum as usize,
                    seed,
                },
            }
            .estimate(&game),
        };
        for (&player, &value) in alive.iter().zip(&estimate.values) {
            values[player] = value;
        }
        (
            values,
            estimate.utility_evaluations,
            estimate.diagnostics.samples,
        )
    }
}
