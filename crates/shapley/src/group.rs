//! GroupSV — the paper's Algorithm 1.
//!
//! The native method cannot run under secure aggregation because the
//! blockchain never sees individual updates, only sums. GroupSV restores
//! computability by changing the granularity:
//!
//! 1. Partition the `n` users into `m` groups with a seeded permutation
//!    (`π ← permutation(e, r, I)`, groups are consecutive chunks of π).
//! 2. Each group's model `W_j` is the *average of its members' updates* —
//!    obtainable from secure aggregation restricted to the group.
//! 3. Coalition models over groups are plain averages:
//!    `W_S = (1/|S|) Σ_{j∈S} W_j`.
//! 4. Exact SV over the `m` groups (Eq. 1 at group granularity), each
//!    group's value split uniformly among its members.
//!
//! The `m` knob trades resolution for privacy: `m = n` reproduces
//! per-user SV over local models (no grouping privacy), small `m` hides
//! individuals inside group averages ((n/m)-anonymity) at the cost of
//! uniform within-group attribution.
//!
//! # Where the averaging happens
//!
//! Step 3 is never materialised in weight space. [`GroupModelGame`]
//! takes each group model's [`ModelUtility::scores`] once — the weights
//! themselves by default, the test-set logits `X · W_j` for an accuracy
//! utility — and averages *those* per coalition, which is the same
//! number whenever `scores` is linear: `m` GEMMs per evaluated round
//! instead of `2^m`.
//!
//! **Summation order.** Per element a coalition's mean is
//! `(((0 + s_a) + s_b) + …) · 1/|S|` over its members in ascending
//! index: a pure function of the mask, never of the order or the batch
//! coalitions are asked for in, so every thread count produces the same
//! bits. It is also the order a game over the same members with other
//! players around them uses, so a player no coalition holds can leave
//! the game without moving a bit.
//!
//! **The member trie.** In that order `sum(S) = sum(S ∖ max S) +
//! s[max S]`: coalitions are the nodes of a trie keyed by ascending
//! member, each partial sum one vector add on its parent's. A game
//! values a *batch* ([`CoalitionUtility::evaluate_many`]; `evaluate` is
//! a batch of one) by walking that trie in pre-order: the batch sorted
//! by `mask.reverse_bits()` — player 0 compares first — so the longest
//! member prefix a coalition has in common with its predecessor is still
//! on a stack of partial sums, a level per member, and only the members
//! past it are added. That is one add per coalition of a full
//! enumeration and about half a from-scratch sum on a sampled list.
//!
//! The walk goes coalition by coalition over a *tile* of the vectors. A
//! labelled utility's vectors (below) are cut into whole blocks of rows,
//! as many a tile as keep that tile of every player's vector and of every
//! level within the game's walk budget, at least one block a tile, their
//! hit counts added in tile order; any other utility's vector is one
//! tile, whole. The game derives the budget from two cache sizes of the
//! benchmark's Xeon: 48 KiB, its L1 data cache, when one whole register
//! group (below) of every player and every level fits in it, so the
//! tile's sums and levels stay in L1 from one coalition to the next — the
//! second level of `sharded_1k`, 32 players, walks seven tiles of one
//! AVX-512F group each; otherwise 1 MiB, half its L2 — the 10 000-owner
//! round's second level, 64 players, walks six
//! ([`GroupModelGame::with_walk_bytes`] sets another budget for tests). A
//! coalition's set-up — the shared prefix, the members it adds, the
//! levels it writes back — runs once per tile. A tile is summed a
//! register group at a time (twelve 16-lane `f32` vectors' worth of
//! registers for a screened game, eight of the instantiation's `f64`
//! vectors for a mean): a group starts from the stored level of the
//! prefix shared with the previous coalition (`0.0` when nothing is
//! shared), adds the other members in ascending order while it stays in
//! registers, and writes back only the levels the next coalition reads
//! (those up to the prefix the two share). What happens to a group's sums
//! then depends on the utility: a labelled one's are screened (below); any
//! other one's are scaled by `1/|S|` into the coalition's mean, which
//! [`ModelUtility::of_scores`] values once the vector is done.
//!
//! The walk is a [`numeric::isa::Kernel`], compiled for the baseline, for
//! AVX and for AVX-512F; a batch runs the widest the CPU has. None of that
//! can move a bit. The layouts and the groups move elements, never what
//! they are added to: every element of a coalition's sum is still its
//! members' values in ascending order from `0.0`, and each element is one
//! lane of its own — `addps` / `addpd` and `mulpd` round a lane alike at
//! every width, in a register or through memory, lanes never interact,
//! and rustc neither fuses a multiply into an add nor reorders a sum. A
//! hit count is exact in any order. Padding rows are summed beside the
//! real ones and never count.
//!
//! # The label screen
//!
//! A utility that scores a row by whether its label is the row's first
//! maximum ([`ModelUtility::labels`]; the contract's accuracy utility)
//! only needs, per row, the signs of the `C − 1` label-minus-rival
//! differences of the coalition mean. [`GroupModelGame::new`] therefore
//! keeps, for each row that did not settle (below), each player's
//! differences `d_j = s_j[label] − s_j[c]` rounded to `f32`, in blocks of
//! 16 rows — one AVX-512F vector of one rival for 16 rows, rival-major
//! within a block — and a threshold per row and rival,
//! `θ = 2^-16 · Σ_j (|s_j[label]| + |s_j[c]|) + 2^-100` over every player
//! `j`, rounded to `f32`. A row holding a score that is not finite or has
//! a magnitude above 2^100, in any player, or whose label is no class,
//! gets `θ = +∞` and zero differences. The walk sums the differences over
//! a coalition's members in `f32`: a row whose sums all exceed their `θ`
//! is a hit, a row with one sum below `−θ` a miss, and every other row —
//! a few hundred row-coalitions in a walk of millions on the benchmark's
//! second level — is decided exactly: its scores summed in `f64` over
//! the members in ascending order from `0.0`, scaled by `1/|S|` and
//! checked by [`numeric::stats::is_argmax`], which is what the mean's
//! element-wise order gives. Padding rows hold difference `−1` and
//! threshold `0`, so they read as misses. For that exact decision the
//! game keeps the `f64` scores as [`ModelUtility::scores_many`] laid them
//! out — each row's players side by side — unless every row settled.
//!
//! # Settled rows
//!
//! A labelled value is a count of hits per row, and on a trained round
//! most rows count alike for every coalition: each group model classifies
//! a test row right, or wrong, by a margin no average of them can erase.
//! [`GroupModelGame::new`] asks the utility once per row
//! ([`ModelUtility::settled`]), folds the answered counts into one
//! constant per game and keeps only the other rows, with their original
//! indices. An element's fold order is the member order whatever else
//! settled, and a utility answers only when its counts add exactly, so
//! every value keeps its bits. When every row settled (Table I's trained
//! rounds) there is nothing to walk: each coalition counts no hit past
//! the settled ones.
//!
//! [`argmax_settled`] decides a row for the rule of
//! [`numeric::stats::is_argmax`]. Score `a` *beats* `b` when both are
//! finite with magnitude ≤ 2^1000 and the computed `a − b > 2^-40·(|a| +
//! |b|) + 2^-1000`. A row is a settled hit when in every member the
//! label's score beats every other class, a settled miss when one fixed
//! class beats the label's in every member. Why every coalition mean
//! keeps that order (u = 2^-53, γₙ = nu / (1 − nu)):
//!
//! 1. *The check is conservative.* Rounding is monotone, so a computed
//!    `a − b > 0` means `a > b`, and each of the check's four operations
//!    rounds within a factor 1 ± u — except the product by 2^-40, which
//!    may underflow by at most 2^-1075 — so a passing check implies the
//!    real `a − b > ε·(|a| + |b|) + τ` with ε = 2^-41 and τ = 2^-1001.
//!    Summed over a coalition's k members: `A − B > ε·T + kτ`, where
//!    `A = Σ a_j` and `B = Σ b_j` exactly and `T = Σ (|a_j| + |b_j|)`.
//! 2. *The sums.* Let k ≤ 64 and every |a_j|, |b_j| ≤ 2^1000. Any
//!    addition tree over k leaves computes Â with |Â − A| ≤
//!    γ_{k−1}·Σ|a_j|: a leaf passes at most k − 1 roundings, a subnormal
//!    sum is exact, and no partial sum comes near overflow below
//!    64·2^1000. The walk's member order and the `0.0` a level starts
//!    from make such a tree. So Â − B̂ > (ε − γ₆₃)·T + kτ, where ε − γ₆₃ >
//!    2^-42.
//! 3. *The scale.* `s = fl(1/k)` has `s·k ≥ 1 − u`. A rounded product is
//!    `z(1 + θ) + η` with |θ| ≤ u and |η| ≤ 2^-1075, the absolute floor
//!    where `z` underflows, so fl(Â·s) − fl(B̂·s) ≥ (Â − B̂)·s −
//!    u·s·(|Â| + |B̂|) − 2^-1074. With |Â| + |B̂| ≤ (1 + γ₆₃)·T this
//!    exceeds s·T·(ε − γ₆₃ − u(1 + γ₆₃)) + s·k·τ − 2^-1074 ≥
//!    (1 − u)·2^-1001 − 2^-1074 > 0.
//!
//! So each coalition's mean puts the beating score strictly above the
//! beaten one, both finite: the label wins every comparison of a settled
//! hit and loses one of a settled miss, exactly as in every member.
//!
//! **The screen decides as the mean does.** Steps 2 and 3 need only
//! their premise, `A − B > ε·T + kτ` with every magnitude ≤ 2^1000, for
//! the one coalition at hand. Take a row and rival the screen decided for
//! a coalition of k ≤ 64 members, `a` the label's scores and `b` the
//! rival's, so every magnitude is ≤ 2^100, and let `Δ = A − B` and
//! `T_all ≥ T` the sum over every player. With v = 2^-24 (`f32`'s unit
//! roundoff) and γ'ₙ = nv / (1 − nv):
//!
//! 4. *The differences.* `d_j` is `a_j − b_j` rounded to `f64`, then to
//!    `f32`: |d_j − (a_j − b_j)| ≤ (v + 2^-53 + 2^-77)·|a_j − b_j| +
//!    2^-150, the last term where `d_j` lands among `f32`'s subnormals
//!    (|d_j| ≤ 2^101, far from overflow).
//! 5. *The screened sum.* The walk adds the k differences in one addition
//!    tree, so the computed D̂ has |D̂ − Σ d_j| ≤ γ'₆₃·Σ|d_j| (sums stay
//!    below 2^108 and subnormal sums are exact). With step 4, |D̂ − Δ| ≤
//!    (v + γ'₆₃)(1 + 2^-22)·T + 2^-143 < 2^-17.9·T + 2^-143.
//! 6. *The threshold.* The stored `θ` is at least
//!    (1 − 2^-23)·(2^-16·T_all + 2^-100): its `f64` sum of at most 128
//!    terms rounds by less than 2^-45 relatively, its scale by 2^-16 is
//!    exact or underflows by at most 2^-1075, and the rounding to `f32`
//!    costs a factor 1 − v.
//!
//! So a sum D̂ > θ gives Δ > θ − 2^-17.9·T − 2^-143 > (2^-16·(1 − 2^-23) −
//! 2^-17.9)·T + 2^-101 > 2^-41·T + 64·2^-1001 ≥ ε·T + kτ, and a sum D̂ <
//! −θ gives the same for `B − A`. Steps 2 and 3 then order the two
//! scores of the `f64` mean strictly, both finite: a row whose every
//! rival is screened above is a hit of [`numeric::stats::is_argmax`], a
//! row with a rival screened below a miss — each exactly what the exact
//! decision would answer. Hit counts are exact, so every value keeps its
//! bits.

use std::cell::RefCell;
use std::ops::Add;

use numeric::isa::{Isa, Kernel};
use numeric::linalg::mean_vectors;
use numeric::par;
use numeric::stats::is_argmax;

use crate::coalition::{Coalition, MAX_PLAYERS, MAX_SAMPLED_PLAYERS};
use crate::estimator::{Exact, SvEstimator};
use crate::hierarchy::RoundPlan;
use crate::utility::{granule_of, CoalitionUtility, ModelUtility};

/// Configuration for one GroupSV evaluation round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSvConfig {
    /// Number of groups `m` (the resolution/privacy knob).
    pub num_groups: usize,
    /// Public permutation seed `e` agreed at setup.
    pub seed: u64,
    /// Round number `r`; combined with `e` so each round re-partitions.
    pub round: u64,
}

/// Output of [`group_shapley`].
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSvResult {
    /// Per-user Shapley values `v_i` (indexed by user).
    pub per_user: Vec<f64>,
    /// Per-group Shapley values `V_j` (indexed by group).
    pub per_group: Vec<f64>,
    /// Group memberships: `groups[j]` lists user indices in group `j`.
    pub groups: Vec<Vec<usize>>,
    /// The group models `W_j` (averages of member updates).
    pub group_models: Vec<Vec<f64>>,
    /// The global model `W_G`: average of all group models (line "users
    /// download the new global model" in the protocol).
    pub global_model: Vec<f64>,
    /// Number of utility evaluations performed (`2^m`, for Table I).
    pub utility_evaluations: usize,
}

/// The deterministic permutation `π ← permutation(e, r, I)`.
///
/// splitmix64-seeded Fisher–Yates over `0..n`, reproducible from public
/// inputs so every re-executing miner derives the identical grouping.
/// Only [`RoundPlan::new`] calls it: every caller reads its groups from
/// there.
pub(crate) fn permutation(seed: u64, round: u64, n: usize) -> Vec<usize> {
    // Mix e and r into one 64-bit state (splitmix64 stream).
    let mut state = seed ^ round.wrapping_mul(crate::rng::GOLDEN);
    let mut next = move || crate::rng::stream_next(&mut state);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        // Rejection-free modulo is fine here: the bias over u64 is
        // immaterial for grouping, and determinism is what matters.
        let j = (next() % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    idx
}

/// `grouping(π, m)`: chops the permutation into `m` consecutive chunks;
/// the first `n mod m` groups take one extra member.
///
/// # Panics
///
/// No peer reaches either: the one caller, [`RoundPlan::new`], returns a
/// typed error for such counts first, and genesis runs it over the
/// on-chain counts.
/// - `m` is zero;
/// - `m` exceeds `pi.len()`.
pub(crate) fn grouping(pi: &[usize], m: usize) -> Vec<Vec<usize>> {
    assert!(m > 0, "need at least one group");
    assert!(m <= pi.len(), "more groups ({m}) than users ({})", pi.len());
    let n = pi.len();
    let base = n / m;
    let extra = n % m;
    let mut groups = Vec::with_capacity(m);
    let mut offset = 0;
    for j in 0..m {
        let size = base + usize::from(j < extra);
        groups.push(pi[offset..offset + size].to_vec());
        offset += size;
    }
    debug_assert_eq!(offset, n);
    groups
}

/// The group-model coalition game: `u(S) = utility(mean_{j∈S} W_j)`.
///
/// This is the game the smart contract plays on-chain — it receives the
/// per-group secure aggregates (it can never see individual updates) and
/// asks for the utility of coalition averages. Exposing it as a
/// [`CoalitionUtility`] lets **any** estimator in
/// [`crate::estimator`] run over group models: exact enumeration
/// (Algorithm 1), Monte-Carlo, or stratified sampling for group counts
/// beyond the exact cap.
///
/// Representation: construction takes every group model's
/// [`ModelUtility::scores`] once, in one call
/// ([`ModelUtility::scores_many`]: one test-set GEMM for an accuracy
/// utility, copies for the identity view). A labelled utility's rows are
/// settled and laid out for the screen straight from them (module docs,
/// "Settled rows" and "The label screen"); any other utility's vectors
/// are kept whole. A coalition is then valued by the utility on the mean
/// of its members' scores, which the game sums by walking the member trie
/// (module docs) over what it keeps of the `m` score vectors. A value is
/// a pure function of the coalition bitmask, so every estimator built on
/// [`numeric::par`] stays bit-identical across thread counts.
pub struct GroupModelGame<'a, U> {
    utility: &'a U,
    players: usize,
    /// What the walk sums, per player.
    lanes: Lanes,
    /// Bytes of a walk tile's working set, when set
    /// ([`Self::with_walk_bytes`]); the game derives them otherwise.
    walk_bytes: Option<usize>,
}

/// The per-player vectors a game walks.
enum Lanes {
    /// An unscreened utility's score vectors, whole.
    Means(Vec<Vec<f64>>),
    /// A labelled utility's kept rows (module docs, "The label screen").
    Margins(Margins),
}

/// Rows per block of the label screen: one 16-lane `f32` vector.
const SCREEN_ROWS: usize = 16;
/// Largest score magnitude the screen decides: 2^100.
const SCREEN_MAX: f64 = f64::from_bits((1023 + 100) << 52);
/// The relative part of a screen threshold: 2^-16.
const SCREEN_RELATIVE: f64 = f64::from_bits((1023 - 16) << 52);
/// The absolute part of a screen threshold: 2^-100.
const SCREEN_ABSOLUTE: f64 = f64::from_bits((1023 - 100) << 52);

/// A labelled game's kept rows (module docs, "The label screen").
struct Margins {
    /// Per player, per block of [`SCREEN_ROWS`] kept rows, per rival of
    /// each row's label in class order, one difference a row:
    /// `s[label] − s[rival]` as `f32`; `−1` in a padding lane.
    margins: Vec<Vec<f32>>,
    /// The threshold of each difference, a vector per block and rival.
    thresholds: Vec<[f32; SCREEN_ROWS]>,
    /// Every row's scores, each row's players side by side: the exact
    /// decision. Empty when no row is kept.
    scores: Vec<f64>,
    /// Every row's label; empty with `scores`.
    labels: Vec<usize>,
    /// Index in the full score vectors of each kept row, ascending.
    kept: Vec<usize>,
    /// The settled rows' counts, summed in row order; `None` when no row
    /// settled.
    settled: Option<f64>,
    classes: usize,
    /// Differences per row: `classes − 1`, at least one.
    rivals: usize,
}

thread_local! {
    /// Per-thread scratch for means, partial sums and screened rows:
    /// `evaluate` only allocates on a thread's first use. A call reads
    /// what it wrote, a pure function of the masks, so no output bit
    /// knows the thread.
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// What a walk writes besides its output.
#[derive(Default)]
struct Scratch {
    /// An unlabelled coalition's mean.
    mean: Vec<f64>,
    /// Levels of partial sums of means.
    sums: Vec<f64>,
    /// Levels of partial sums of screened differences.
    margins: Vec<f32>,
    /// A screened coalition's undecided lanes: block and lane mask.
    unsure: Vec<(usize, u16)>,
    /// One row's exact mean.
    row: Vec<f64>,
}

impl<'a, U: ModelUtility> GroupModelGame<'a, U> {
    /// Builds the game over `group_models` (one flat model per group).
    ///
    /// # Panics
    ///
    /// Each a caller's contract; no peer reaches one through the
    /// contract, which builds a game only over its non-empty set of alive
    /// groups or cohorts, at most the count genesis bounds by the
    /// method's cap, all scored into one length (the test set's logits):
    /// - no group models;
    /// - more than [`MAX_SAMPLED_PLAYERS`] group models;
    /// - score vectors of different lengths
    ///   ([`ModelUtility::scores_many`]'s default checks them).
    pub fn new(group_models: &[Vec<f64>], utility: &'a U) -> Self {
        let m = group_models.len();
        assert!(m > 0, "no groups");
        assert!(
            m <= MAX_SAMPLED_PLAYERS,
            "coalition masks hold {MAX_SAMPLED_PLAYERS} groups, got {m}"
        );
        // Row `g` of player `j` at `(g · m + j) · G`: `G` is a labelled
        // row's length, or the whole vector's.
        let scores = utility.scores_many(group_models);
        let full = scores.len() / m;
        let lanes = match (granule_of(utility, full), utility.labels()) {
            (Some(classes), Some(labels)) => {
                let (settled, kept) = settle(utility, &scores, m, classes);
                Lanes::Margins(Margins::new(scores, m, kept, settled, labels, classes))
            }
            // The players' vectors one after another, each scored whole.
            _ => Lanes::Means(
                (0..m)
                    .map(|j| scores[j * full..(j + 1) * full].to_vec())
                    .collect(),
            ),
        };
        Self {
            utility,
            players: m,
            lanes,
            walk_bytes: None,
        }
    }

    /// The game walking a labelled utility's vectors in tiles whose
    /// working set — that tile of every player's vector and of every level
    /// of partial sums — stays within `bytes`, at least one block of rows
    /// a tile, in place of the budget the game derives (module docs, "The
    /// member trie"); any other utility's vector stays one tile. A test
    /// hook: no value moves a bit.
    #[must_use]
    pub fn with_walk_bytes(mut self, bytes: usize) -> Self {
        self.walk_bytes = Some(bytes);
        self
    }

    /// Tiles the walk cuts the kept vectors into for a batch whose
    /// largest coalition has `deepest` members; 0 when nothing is left
    /// to walk.
    pub fn walk_tiles(&self, deepest: usize) -> usize {
        self.len().div_ceil(self.tile(deepest))
    }

    /// Elements of a walk tile for a batch whose largest coalition has
    /// `deepest` members: for a labelled utility, as many whole blocks of
    /// every rival as keep that tile of every player's vector and of
    /// `deepest` levels within the walk budget, at least one block and at
    /// most the whole vector; the whole vector otherwise.
    fn tile(&self, deepest: usize) -> usize {
        let Lanes::Margins(margins) = &self.lanes else {
            return self.len().max(1);
        };
        let (players, unit) = (margins.margins.len(), margins.rivals * SCREEN_ROWS);
        let vectors = (players + deepest).max(1);
        let in_l1 = vectors * GROUP_BYTES <= L1_BYTES;
        let bytes = (self.walk_bytes).unwrap_or(if in_l1 { L1_BYTES } else { L2_BYTES });
        let fit = bytes / size_of::<f32>() / vectors / unit;
        (fit.max(1) * unit).clamp(1, self.len().max(1))
    }

    /// Length of each walked vector: whole blocks; 0 when nothing is
    /// left to walk.
    fn len(&self) -> usize {
        let vectors = match &self.lanes {
            Lanes::Means(scores) => scores.first().map(Vec::len),
            Lanes::Margins(margins) => margins.margins.first().map(Vec::len),
        };
        vectors.unwrap_or(0)
    }

    /// `out[i] = u(coalitions[i])`; allocates only to grow the scratch.
    fn values_into(&self, coalitions: &[Coalition], out: &mut [f64]) {
        self.values_on(Isa::detect(), coalitions, out);
    }

    /// [`Self::values_into`] with the walk compiled for `isa`.
    fn values_on(&self, isa: Isa, coalitions: &[Coalition], out: &mut [f64]) {
        debug_assert!(
            coalitions
                .iter()
                .all(|c| c.0 & !Coalition::grand(self.players).0 == 0),
            "a coalition names a player past the game's {}",
            self.players
        );
        if self.len() == 0 {
            // Nothing to walk: every row settled, or the vectors are
            // empty; each coalition's value is the same, asked once here.
            out.fill(match self.lanes {
                Lanes::Means(_) => self.utility.of_scores(&[]),
                Lanes::Margins(_) => 0.0,
            });
        } else {
            // Taken out of the cell, not borrowed across the utility's
            // calls: a utility that itself consults another game on this
            // thread starts from an empty scratch instead of a RefCell
            // panic.
            let mut scratch = SCRATCH.with(RefCell::take);
            isa.run(Walk {
                game: self,
                coalitions,
                out: &mut *out,
                scratch: &mut scratch,
            });
            SCRATCH.with(|cell| cell.replace(scratch));
        }
        for (value, coalition) in out.iter_mut().zip(coalitions) {
            if coalition.is_empty() {
                *value = self.utility.of_empty();
            } else if let Lanes::Margins(margins) = &self.lanes {
                *value = (self.utility)
                    .of_tally(margins.settled.map_or(*value, |settled| settled + *value));
            }
        }
    }
}

impl Margins {
    /// Lays out the screen of rows `kept` of `scores` (rows of `classes`,
    /// each row's `players` score rows side by side), whose labels
    /// `labels` lists for every row, straight from the scores, which it
    /// keeps for the exact decision while a row is kept (module docs,
    /// "The label screen"); `settled` counts the other rows' hits.
    fn new(
        scores: Vec<f64>,
        players: usize,
        kept: Vec<usize>,
        settled: Option<f64>,
        labels: &[usize],
        classes: usize,
    ) -> Self {
        let rivals = classes.saturating_sub(1).max(1);
        let vectors = kept.len().div_ceil(SCREEN_ROWS) * rivals;
        let mut thresholds = vec![[0.0f32; SCREEN_ROWS]; vectors];
        let mut margins = vec![vec![-1.0f32; vectors * SCREEN_ROWS]; players];
        let width = players * classes;
        for (k, &row) in kept.iter().enumerate() {
            let (label, row) = (labels[row], &scores[row * width..(row + 1) * width]);
            let decided =
                classes > 1 && label < classes && row.iter().all(|x| x.abs() <= SCREEN_MAX);
            for rival in 0..rivals {
                let vector = k / SCREEN_ROWS * rivals + rival;
                let lane = k % SCREEN_ROWS;
                let class = rival + usize::from(rival >= label);
                let mut total = 0.0f64;
                for (s, margins) in row.chunks_exact(classes).zip(&mut margins) {
                    margins[vector * SCREEN_ROWS + lane] = if decided {
                        let (a, b) = (s[label], s[class]);
                        total += a.abs() + b.abs();
                        (a - b) as f32
                    } else {
                        0.0
                    };
                }
                thresholds[vector][lane] = if decided {
                    (total * SCREEN_RELATIVE + SCREEN_ABSOLUTE) as f32
                } else {
                    f32::INFINITY
                };
            }
        }
        let (scores, labels) = if kept.is_empty() {
            (Vec::new(), Vec::new())
        } else {
            (scores, labels.to_vec())
        };
        Self {
            margins,
            thresholds,
            scores,
            labels,
            kept,
            settled,
            classes,
            rivals,
        }
    }

    /// Whether row `row`'s label is the first maximum of coalition
    /// `mask`'s mean, decided in `f64`: the members' scores in ascending
    /// order from `0.0`, times `inv` = `1/|S|`, into `mean`.
    fn exact_hit(&self, row: usize, mask: u64, inv: f64, mean: &mut Vec<f64>) -> bool {
        let (classes, players) = (self.classes, self.margins.len());
        mean.clear();
        mean.resize(classes, 0.0);
        for j in Members(mask).take_while(|&j| j < players) {
            let at = (row * players + j) * classes;
            for (sum, s) in mean
                .iter_mut()
                .zip(self.scores.get(at..at + classes).unwrap_or(&[]))
            {
                *sum += s;
            }
        }
        for sum in mean.iter_mut() {
            *sum *= inv;
        }
        self.labels
            .get(row)
            .is_some_and(|&label| is_argmax(mean, label))
    }
}

/// The members of a coalition mask, ascending.
struct Members(u64);

impl Iterator for Members {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let member = (self.0 != 0).then(|| self.0.trailing_zeros() as usize);
        self.0 &= self.0.wrapping_sub(1);
        member
    }
}

/// A lane element the walk sums: `f64` for means, `f32` for screened
/// differences. `Default` is `+0.0`, the sum of no member.
trait Lane: Copy + Default + Add<Output = Self> {}

impl Lane for f64 {}

impl Lane for f32 {}

/// What a walk does with each coalition's sums.
trait Visit<E> {
    /// What coalition `mask` makes of the tile of elements `first ..`,
    /// whose sums `pass` yields a register group at a time: a screened
    /// tile's hit count, a whole mean's value.
    fn coalition(&mut self, pass: &mut Pass<'_, E>, mask: u64, first: usize) -> f64;
}

/// The walk budget of a game one register group of whose every player
/// and level fits in [`L1_BYTES`]: that L1 data cache, so each tile's
/// sums and stored levels stay in it from one coalition to the next.
/// `sharded_1k`'s second level (32 players and up to 32 levels, 1 248
/// screened differences) walks seven tiles of one AVX-512F group each.
const L1_BYTES: usize = 48 << 10;

/// The walk budget of a larger game: half an L2 of the 2-MiB-a-core Xeon
/// the benchmark runs on. The 10 000-owner round's second level (64
/// players and up to 64 levels, 12 000 screened differences) walks six
/// tiles, which keeps it out of L3.
const L2_BYTES: usize = 1 << 20;

/// The widest register group either walk holds: twelve 16-lane `f32`
/// vectors of screened differences, one zmm each (eight 8-lane `f64`
/// vectors of a mean are less).
const GROUP_BYTES: usize = 12 * SCREEN_ROWS * size_of::<f32>();

/// Members of a batch's largest coalition: the levels its walk stores.
fn deepest(coalitions: &[Coalition]) -> usize {
    coalitions.iter().map(Coalition::len).max().unwrap_or(0)
}

/// One pre-order walk of the member trie over `vectors` (one per
/// player, all one length) per tile of `tile` elements, leaving in
/// `out` each non-empty coalition's sum of what `visit` gives it per
/// tile (module docs, "The member trie"). Inlined into [`Walk`]'s
/// instantiations, `visit` with it.
#[inline(always)]
fn walk<E: Lane>(
    vectors: &[Vec<E>],
    tile: usize,
    coalitions: &[Coalition],
    out: &mut [f64],
    levels: &mut Vec<E>,
    visit: &mut impl Visit<E>,
) {
    // Trie pre-order; a batch that arrives in it (one coalition, an
    // exact subtree, a run of distinct sampled coalitions) is walked as
    // it stands.
    let mut order: Vec<usize> = Vec::new();
    if !coalitions.is_sorted_by_key(|c| c.0.reverse_bits()) {
        order = (0..coalitions.len()).collect();
        order.sort_unstable_by_key(|&i| coalitions.get(i).map_or(0, |c| c.0.reverse_bits()));
    }
    // Levels 1 ..= deepest, each a tile long.
    let stride = vectors.first().map_or(0, Vec::len);
    let tile = tile.max(1);
    levels.resize(levels.len().max(deepest(coalitions) * tile), E::default());

    let slot = |k: usize| order.get(k).copied().unwrap_or(k);
    let mask_at = |k: usize| coalitions.get(slot(k)).map_or(0, |c| c.0);
    // Pre-order puts the empty coalitions first; they have no mean.
    let empties = coalitions.iter().filter(|c| c.is_empty()).count();
    let mut players: [&[E]; MAX_SAMPLED_PLAYERS] = [&[]; MAX_SAMPLED_PLAYERS];
    let mut members = players;
    for first in (0..stride).step_by(tile) {
        let len = tile.min(stride - first);
        for (player, vector) in players.iter_mut().zip(vectors) {
            *player = vector.get(first..first + len).unwrap_or(&[]);
        }
        // The coalition whose member-prefix sums the levels hold.
        let mut stacked = 0u64;
        for k in empties..coalitions.len() {
            let mask = mask_at(k);
            // The levels of the prefix shared with the stacked coalition
            // stand; the other members go on top, and a level is written
            // back while the next coalition shares it.
            let shared = shared_prefix(mask, stacked);
            let own = (shared | shared_prefix(mask, mask_at(k + 1))).count_ones() as usize;
            let added = members
                .iter_mut()
                .zip(Members(mask ^ shared).filter_map(|j| players.get(j)))
                .map(|(member, vector)| *member = vector)
                .count();
            let mut pass = Pass {
                members: members.get(..added).unwrap_or(&[]),
                levels: &mut levels[..],
                stride: len,
                depth: shared.count_ones() as usize,
                own,
            };
            let value = visit.coalition(&mut pass, mask, first);
            stacked = mask;
            if let Some(slot) = out.get_mut(slot(k)) {
                // Assigned, not added to 0.0: a `-0.0` utility survives.
                *slot = if first == 0 { value } else { *slot + value };
            }
        }
    }
}

/// One coalition's pass over the vectors: the members it adds past the
/// prefix it shares with the previous coalition, and the levels of
/// partial sums it starts from and writes back (module docs, "The member
/// trie").
struct Pass<'p, E> {
    /// The added members' vectors, ascending.
    members: &'p [&'p [E]],
    /// Level `d` — the sum of the coalition's first `d` members — at
    /// `(d − 1) · stride`; the zero level is not stored.
    levels: &'p mut [E],
    /// Length of the tile and of a level.
    stride: usize,
    /// Members in the shared prefix: the level the sums start from.
    depth: usize,
    /// Deepest level the next coalition reads: the levels up to it are
    /// written back, the ones past it never leave the registers.
    own: usize,
}

impl<E: Lane> Pass<'_, E> {
    /// The coalition's sums over elements `at ..`, `R` vectors of `W`
    /// lanes, held in registers from the shared level through the last
    /// member: each member added in ascending order, the levels the next
    /// coalition reads written back.
    #[inline(always)]
    fn group<const W: usize, const R: usize>(&mut self, at: usize) -> [[E; W]; R] {
        let stride = self.stride;
        let mut sum = [[E::default(); W]; R];
        if let Some(level) = self.depth.checked_sub(1) {
            if let Some(base) = vectors::<E, W, R>(self.levels, level * stride + at) {
                sum = *base;
            }
        }
        let writes = self.own.saturating_sub(self.depth).min(self.members.len());
        let (written, rest) = self.members.split_at(writes);
        for (level, member) in (self.depth..).zip(written) {
            add(&mut sum, vectors::<E, W, R>(member, at));
            if let Some(stored) = vectors_mut::<E, W, R>(self.levels, level * stride + at) {
                *stored = sum;
            }
        }
        for member in rest {
            add(&mut sum, vectors::<E, W, R>(member, at));
        }
        sum
    }
}

/// `R` vectors of `W` lanes of `v` from element `at` on.
#[inline(always)]
fn vectors<E, const W: usize, const R: usize>(v: &[E], at: usize) -> Option<&[[E; W]; R]> {
    v.get(at..)?.as_chunks::<W>().0.first_chunk::<R>()
}

/// [`vectors`], writable.
#[inline(always)]
fn vectors_mut<E, const W: usize, const R: usize>(
    v: &mut [E],
    at: usize,
) -> Option<&mut [[E; W]; R]> {
    v.get_mut(at..)?
        .as_chunks_mut::<W>()
        .0
        .first_chunk_mut::<R>()
}

/// `sum += member`, lane by lane. Spelled as a new group, not as adds
/// into `sum` in place: past 64 lanes LLVM keeps the group in registers
/// only in this form, and leaves the in-place one scalar, through the
/// stack.
#[inline(always)]
fn add<E: Lane, const W: usize, const R: usize>(
    sum: &mut [[E; W]; R],
    member: Option<&[[E; W]; R]>,
) {
    if let Some(member) = member {
        let mut next = [[E::default(); W]; R];
        for ((next, sum), member) in next.iter_mut().zip(sum.iter()).zip(member) {
            for ((next, sum), member) in next.iter_mut().zip(sum).zip(member) {
                *next = *sum + *member;
            }
        }
        *sum = next;
    }
}

/// An unlabelled utility's visit: each group's sums scaled by `1/|S|`
/// into the mean, groups of eight `L`-lane vectors, then single vectors,
/// then single elements; the utility's value of the whole mean.
struct Scale<'s, U, const L: usize> {
    utility: &'s U,
    /// The coalition's mean, at least the vector long.
    mean: &'s mut [f64],
}

impl<U: ModelUtility, const L: usize> Visit<f64> for Scale<'_, U, L> {
    #[inline(always)]
    fn coalition(&mut self, pass: &mut Pass<'_, f64>, mask: u64, _: usize) -> f64 {
        let inv = 1.0 / f64::from(mask.count_ones());
        let len = pass.stride;
        let mean = self.mean.get_mut(..len).unwrap_or(&mut []);
        let mut done = 0;
        while len - done >= 8 * L {
            done += scale::<L, 8>(pass, mean, done, inv);
        }
        while len - done >= L {
            done += scale::<L, 1>(pass, mean, done, inv);
        }
        while done < len {
            done += scale::<1, 1>(pass, mean, done, inv);
        }
        self.utility.of_scores(mean)
    }
}

/// One register group of a mean: the sums of elements `at ..` times
/// `inv`, into `mean`. Returns the elements done, `R · L`.
#[inline(always)]
fn scale<const L: usize, const R: usize>(
    pass: &mut Pass<'_, f64>,
    mean: &mut [f64],
    at: usize,
    inv: f64,
) -> usize {
    let sum = pass.group::<L, R>(at);
    if let Some(out) = vectors_mut::<f64, L, R>(mean, at) {
        for (out, sum) in out.iter_mut().zip(&sum) {
            for (out, sum) in out.iter_mut().zip(sum) {
                *out = sum * inv;
            }
        }
    }
    R * L
}

/// A labelled utility's visit (module docs, "The label screen"): each
/// group of `R` difference vectors screened against its thresholds, then
/// the undecided rows decided exactly; the coalition's hit count.
struct Screen<'s, const R: usize> {
    margins: &'s Margins,
    /// Each kept row's index in the players' vectors.
    kept: &'s [usize],
    unsure: &'s mut Vec<(usize, u16)>,
    row: &'s mut Vec<f64>,
}

impl<const R: usize> Visit<f32> for Screen<'_, R> {
    #[inline(always)]
    fn coalition(&mut self, pass: &mut Pass<'_, f32>, mask: u64, first: usize) -> f64 {
        let margins = self.margins;
        // The tile's vectors: whole blocks of every rival.
        let (base, vectors) = (first / SCREEN_ROWS, pass.stride / SCREEN_ROWS);
        let thresholds = margins.thresholds.get(base..).unwrap_or(&[]);
        let mut tally = Tally::new(margins.rivals, base / margins.rivals);
        self.unsure.clear();
        let mut v = 0;
        while vectors - v >= R {
            v = self.screen::<R>(pass, &mut tally, thresholds, v);
        }
        while vectors - v >= 4 {
            v = self.screen::<4>(pass, &mut tally, thresholds, v);
        }
        while v < vectors {
            v = self.screen::<1>(pass, &mut tally, thresholds, v);
        }
        let inv = 1.0 / f64::from(mask.count_ones());
        let mut hits = tally.hits();
        for &(block, lanes) in self.unsure.iter() {
            for lane in Members(u64::from(lanes)) {
                let row = self.kept.get(block * SCREEN_ROWS + lane);
                hits += usize::from(
                    row.is_some_and(|&row| margins.exact_hit(row, mask, inv, self.row)),
                );
            }
        }
        hits as f64
    }
}

impl<const R: usize> Screen<'_, R> {
    /// Screens the tile's `G` difference vectors from vector `v` on
    /// against their `thresholds`; returns the vector after them.
    #[inline(always)]
    fn screen<const G: usize>(
        &mut self,
        pass: &mut Pass<'_, f32>,
        tally: &mut Tally,
        thresholds: &[[f32; SCREEN_ROWS]],
        v: usize,
    ) -> usize {
        for (sum, v) in pass
            .group::<SCREEN_ROWS, G>(v * SCREEN_ROWS)
            .iter()
            .zip(v..)
        {
            tally.take(sum, thresholds.get(v), self.unsure);
        }
        v + G
    }
}

/// A screened coalition's running count: per lane of the block at hand,
/// `1` while the row's sums on every rival so far exceed their
/// thresholds, and `1` once one sum is below its negated threshold —
/// lane-wise integers, which LLVM keeps in vector registers where a bit
/// mask per compare would leave the compares scalar.
struct Tally {
    rivals: usize,
    /// The next vector's rival and block.
    rival: usize,
    block: usize,
    above: [u32; SCREEN_ROWS],
    below: [u32; SCREEN_ROWS],
    /// Per lane, the rows screened hits in the finished blocks.
    hits: [u32; SCREEN_ROWS],
}

impl Tally {
    /// The count of a tile whose first block is `block`.
    #[inline(always)]
    fn new(rivals: usize, block: usize) -> Self {
        Self {
            rivals,
            rival: 0,
            block,
            above: [1; SCREEN_ROWS],
            below: [0; SCREEN_ROWS],
            hits: [0; SCREEN_ROWS],
        }
    }

    /// The rows screened hits. A loop, not a closure: a closure the
    /// walk does not inline would pin the count in memory.
    #[inline(always)]
    fn hits(&self) -> usize {
        let mut hits = 0;
        for lane in self.hits {
            hits += lane as usize;
        }
        hits
    }

    /// Screens the next vector of sums against `thresholds` (none: every
    /// row stays open); at a block's last rival, counts its hits and
    /// files its open rows in `unsure` as a lane mask.
    #[inline(always)]
    fn take(
        &mut self,
        sums: &[f32; SCREEN_ROWS],
        thresholds: Option<&[f32; SCREEN_ROWS]>,
        unsure: &mut Vec<(usize, u16)>,
    ) {
        let thresholds = thresholds.unwrap_or(&[f32::INFINITY; SCREEN_ROWS]);
        // New arrays, not updates in place, as in `add`.
        let (mut above, mut below) = ([0; SCREEN_ROWS], [0; SCREEN_ROWS]);
        for lane in 0..SCREEN_ROWS {
            above[lane] = self.above[lane] & u32::from(sums[lane] > thresholds[lane]);
            below[lane] = self.below[lane] | u32::from(sums[lane] < -thresholds[lane]);
        }
        (self.above, self.below) = (above, below);
        self.rival += 1;
        if self.rival == self.rivals {
            let mut open = false;
            let mut hits = [0; SCREEN_ROWS];
            for lane in 0..SCREEN_ROWS {
                hits[lane] = self.hits[lane] + above[lane];
                open |= above[lane] | below[lane] == 0;
            }
            self.hits = hits;
            if open {
                unsure.push((self.block, open_lanes(self.above, self.below)));
            }
            self.block += 1;
            self.rival = 0;
            self.above = [1; SCREEN_ROWS];
            self.below = [0; SCREEN_ROWS];
        }
    }
}

/// The lanes of a block that the screen left open, as a bit mask. Out
/// of line, and handed the lanes by value: the walk's running count then
/// never leaves the registers.
#[inline(never)]
fn open_lanes(above: [u32; SCREEN_ROWS], below: [u32; SCREEN_ROWS]) -> u16 {
    (0..SCREEN_ROWS)
        .filter(|&lane| above[lane] | below[lane] == 0)
        .fold(0, |open, lane| open | 1 << lane)
}

/// A batch's walk as a [`Kernel`]: [`numeric::isa`] compiles it once per
/// instantiation, so the adds and the scale or the screen run in the
/// CPU's widest vectors.
struct Walk<'w, 'a, U> {
    game: &'w GroupModelGame<'a, U>,
    coalitions: &'w [Coalition],
    out: &'w mut [f64],
    scratch: &'w mut Scratch,
}

impl<U: ModelUtility> Kernel for Walk<'_, '_, U> {
    #[inline(always)]
    fn run<const LANES: usize>(self) {
        let Self {
            game,
            coalitions,
            out,
            scratch,
        } = self;
        let tile = game.tile(deepest(coalitions));
        match &game.lanes {
            Lanes::Means(scores) => {
                scratch.mean.resize(game.len(), 0.0);
                let mut visit = Scale::<U, LANES> {
                    utility: game.utility,
                    mean: &mut scratch.mean,
                };
                let levels = &mut scratch.sums;
                walk(scores, tile, coalitions, out, levels, &mut visit);
            }
            // Twelve registers of sums: 16-lane vectors, one zmm each,
            // two ymm or four xmm.
            Lanes::Margins(margins) => match LANES {
                8 => screen_walk::<12>(margins, tile, coalitions, out, scratch),
                4 => screen_walk::<6>(margins, tile, coalitions, out, scratch),
                _ => screen_walk::<3>(margins, tile, coalitions, out, scratch),
            },
        }
    }
}

/// The screened walk in register groups of `R` difference vectors.
#[inline(always)]
fn screen_walk<const R: usize>(
    margins: &Margins,
    tile: usize,
    coalitions: &[Coalition],
    out: &mut [f64],
    scratch: &mut Scratch,
) {
    let mut visit = Screen::<R> {
        margins,
        kept: &margins.kept,
        unsure: &mut scratch.unsure,
        row: &mut scratch.row,
    };
    walk(
        &margins.margins,
        tile,
        coalitions,
        out,
        &mut scratch.margins,
        &mut visit,
    );
}

impl<U: ModelUtility> CoalitionUtility for GroupModelGame<'_, U> {
    fn num_players(&self) -> usize {
        self.players
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        let mut value = [0.0];
        self.values_into(&[coalition], &mut value);
        value[0]
    }

    fn evaluate_many(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let mut values = vec![0.0; coalitions.len()];
        self.values_into(coalitions, &mut values);
        values
    }

    /// A mean over about `m / 2` members' scores, its scaling and the
    /// utility's pass over it, per element; a screened difference of a
    /// kept row is half an element (an `f32` lane is half an `f64` one;
    /// padding rows are free), and the exact decisions are rare enough to
    /// be free.
    fn eval_flops(&self) -> usize {
        let per_element = self.players / 2 + 2;
        match &self.lanes {
            Lanes::Means(_) => self.len() * per_element,
            Lanes::Margins(margins) => margins.kept.len() * margins.rivals * per_element / 2,
        }
    }
}

/// The members of `a` below the lowest player on whom `a` and `b`
/// disagree: the member prefix — the trie path — the two share.
fn shared_prefix(a: u64, b: u64) -> u64 {
    a & !u64::MAX.checked_shl((a ^ b).trailing_zeros()).unwrap_or(0)
}

/// Asks a labelled `utility` for each row of `scores` (each row's
/// `players` pieces of `classes` side by side) whether every coalition
/// counts it alike (module docs, "Settled rows"). Returns the answered
/// counts summed in row order — `None` when there are none — and the
/// indices of the other rows, ascending.
fn settle<U: ModelUtility>(
    utility: &U,
    scores: &[f64],
    players: usize,
    classes: usize,
) -> (Option<f64>, Vec<usize>) {
    let mut settled: Option<f64> = None;
    let mut kept = Vec::new();
    let mut members: Vec<&[f64]> = Vec::with_capacity(players);
    for (index, pieces) in scores.chunks_exact(players * classes).enumerate() {
        members.clear();
        members.extend(pieces.chunks_exact(classes));
        match utility.settled(index, &members) {
            Some(tally) => settled = Some(settled.map_or(tally, |sum| sum + tally)),
            None => kept.push(index),
        }
    }
    (settled, kept)
}

/// Largest score magnitude [`argmax_settled`] reads: 2^1000, so no sum
/// of 64 of them comes near overflow.
const SETTLE_MAX: f64 = f64::from_bits((1023 + 1000) << 52);
/// The relative part of a beating margin: 2^-40.
const SETTLE_RELATIVE: f64 = f64::from_bits((1023 - 40) << 52);
/// The absolute part of a beating margin: 2^-1000.
const SETTLE_ABSOLUTE: f64 = f64::from_bits((1023 - 1000) << 52);

/// Whether `a` leads `b` by the margin that no coalition mean can erase
/// (module docs, "Settled rows").
fn beats(a: f64, b: f64) -> bool {
    a.abs() <= SETTLE_MAX
        && b.abs() <= SETTLE_MAX
        && a - b > (a.abs() + b.abs()) * SETTLE_RELATIVE + SETTLE_ABSOLUTE
}

/// What [`numeric::stats::is_argmax`] answers for `label` on the mean of
/// every non-empty subset of `members` (one row of class scores per
/// group, at most [`MAX_SAMPLED_PLAYERS`]), when it is the same for all
/// of them by margins the module docs prove: `Some(true)` when the
/// label's score beats every other class in every member, `Some(false)`
/// when one class beats the label's in every member, `None` otherwise.
pub fn argmax_settled(members: &[&[f64]], label: usize) -> Option<bool> {
    let classes = members.first()?.len();
    if label >= classes || members.len() > MAX_SAMPLED_PLAYERS {
        return None;
    }
    let hit = |row: &&[f64]| {
        row[label].abs() <= SETTLE_MAX
            && (0..classes).all(|c| c == label || beats(row[label], row[c]))
    };
    if members.iter().all(hit) {
        return Some(true);
    }
    (0..classes)
        .any(|rival| rival != label && members.iter().all(|row| beats(row[rival], row[label])))
        .then_some(false)
}

/// Runs Algorithm 1 over the users' local weight updates.
///
/// `local_weights[i]` is user `i`'s flat update for this round. In the
/// deployed protocol these arrive as *secure aggregates per group*; this
/// function accepts the raw updates and performs the same averaging, so
/// its outputs are bit-comparable with the on-chain contract (which the
/// integration tests assert). It is the off-chain oracle of the
/// contract's flat round, built from the same pieces: the groups of
/// [`RoundPlan::new`]`(seed, round, n, 1, m)` and [`Exact`] over a
/// [`GroupModelGame`].
///
/// # Panics
///
/// No peer reaches these: this is the off-chain oracle, which no replica
/// or auditor runs.
/// - no updates;
/// - `num_groups` outside `1..=n`;
/// - more than [`MAX_PLAYERS`] groups for the `2^m` enumeration;
/// - updates of different lengths.
pub fn group_shapley(
    local_weights: &[Vec<f64>],
    utility: &(impl ModelUtility + Sync),
    config: &GroupSvConfig,
) -> GroupSvResult {
    let n = local_weights.len();
    assert!(n > 0, "no users");
    let m = config.num_groups;
    // Lines 1–2: permutation and grouping — the flat round's layout.
    let groups = match RoundPlan::new(config.seed, config.round, n, 1, m) {
        Ok(plan) => plan.groups()[0].clone(),
        Err(e) => panic!("num_groups must be in 1..={n}, got {m}: {e}"),
    };
    assert!(
        m <= MAX_PLAYERS,
        "GroupSV enumerates 2^m coalitions; m={m} exceeds {MAX_PLAYERS}"
    );
    let dim = local_weights[0].len();
    assert!(
        local_weights.iter().all(|w| w.len() == dim),
        "all updates must share a dimension"
    );

    // Line 3: group models (secure aggregation computes exactly this).
    // Accumulate members directly in listed order — same summation order
    // as `mean_vectors`, without cloning each member's update first.
    let group_flops = n.div_ceil(m) * dim;
    let group_models: Vec<Vec<f64>> =
        par::par_map(&groups, par::items_per_lease(group_flops), |_, g| {
            let mut acc = vec![0.0f64; dim];
            for &i in g {
                for (a, w) in acc.iter_mut().zip(&local_weights[i]) {
                    *a += w;
                }
            }
            let inv = 1.0 / g.len() as f64;
            for a in &mut acc {
                *a *= inv;
            }
            acc
        });

    // Lines 4–6: coalition models and exact SV over groups.
    let estimate = Exact.estimate(&GroupModelGame::new(&group_models, utility));
    let per_group = estimate.values;

    // Line 7: split group value uniformly among members.
    let mut per_user = vec![0.0f64; n];
    for (j, group) in groups.iter().enumerate() {
        let share = per_group[j] / group.len() as f64;
        for &i in group {
            per_user[i] = share;
        }
    }

    // Global model: average of the group models (what users download).
    let global_model = mean_vectors(&group_models);

    GroupSvResult {
        per_user,
        per_group,
        groups,
        group_models,
        global_model,
        utility_evaluations: estimate.utility_evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility::{model_utility_fn, utility_fn};
    use proptest::prelude::*;

    #[test]
    fn eval_flops_states_the_mean_and_forwards_through_the_contracts_wrappers() {
        use crate::utility::{CachedUtility, RestrictedGame};
        let utility = model_utility_fn(|w: &[f64]| w.iter().sum(), 0.0);
        let models = vec![vec![0.5; 40]; 6];
        let game = GroupModelGame::new(&models, &utility);
        assert_eq!(game.eval_flops(), 40 * (6 / 2 + 2));
        let alive = RestrictedGame::new(&game, vec![0, 2, 5]);
        let cached = CachedUtility::new(&alive);
        assert_eq!(cached.eval_flops(), game.eval_flops());
        // A game that says nothing is priced as one that retrains.
        let bare = utility_fn(3, |c: Coalition| c.len() as f64);
        assert_eq!(bare.eval_flops(), par::LEASE_FLOPS);
    }

    fn sum_utility() -> impl ModelUtility {
        // u(W) = Σ w — linear in the model, so group SV is analytically
        // tractable.
        model_utility_fn(|w: &[f64]| w.iter().sum(), 0.0)
    }

    #[test]
    fn permutation_is_deterministic_permutation() {
        let p1 = permutation(42, 0, 9);
        let p2 = permutation(42, 0, 9);
        assert_eq!(p1, p2);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
        assert_ne!(permutation(42, 1, 9), p1, "round changes the permutation");
        assert_ne!(permutation(43, 0, 9), p1, "seed changes the permutation");
    }

    #[test]
    fn grouping_chunks_balanced() {
        let pi: Vec<usize> = (0..9).collect();
        let g = grouping(&pi, 3);
        assert_eq!(g, vec![vec![0, 1, 2], vec![3, 4, 5], vec![6, 7, 8]]);
        let g2 = grouping(&pi, 4);
        let sizes: Vec<usize> = g2.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 2, 2, 2]);
        let total: usize = g2.iter().map(Vec::len).sum();
        assert_eq!(total, 9);
    }

    #[test]
    #[should_panic(expected = "more groups")]
    fn too_many_groups_panics() {
        let pi: Vec<usize> = (0..3).collect();
        let _ = grouping(&pi, 4);
    }

    #[test]
    fn single_group_gives_everyone_equal_share() {
        let weights = vec![vec![1.0], vec![2.0], vec![3.0]];
        let result = group_shapley(
            &weights,
            &sum_utility(),
            &GroupSvConfig {
                num_groups: 1,
                seed: 7,
                round: 0,
            },
        );
        // One group: V_1 = u(W_G) − u(∅) = mean(1,2,3) = 2; each of the 3
        // users gets 2/3.
        assert_eq!(result.per_group.len(), 1);
        assert!((result.per_group[0] - 2.0).abs() < 1e-12);
        for v in &result.per_user {
            assert!((v - 2.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(result.utility_evaluations, 2);
    }

    #[test]
    fn m_equals_n_matches_per_user_native_sv() {
        // With one user per group, GroupSV must equal the native SV of
        // the game u(S) = utility(mean of members' models).
        let weights = vec![vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 1.0]];
        let cfg = GroupSvConfig {
            num_groups: 3,
            seed: 5,
            round: 2,
        };
        let result = group_shapley(&weights, &sum_utility(), &cfg);

        // Build the equivalent coalition game over users directly. The
        // grouping permutes users; map group j -> its single member.
        let member_of_group: Vec<usize> = result.groups.iter().map(|g| g[0]).collect();
        let w2 = weights.clone();
        let game = utility_fn(3, move |c: Coalition| {
            if c.is_empty() {
                return 0.0;
            }
            let members: Vec<Vec<f64>> = c
                .members()
                .map(|j| w2[member_of_group[j]].clone())
                .collect();
            mean_vectors(&members).iter().sum()
        });
        let native = Exact.estimate(&game).values;
        for (j, group) in result.groups.iter().enumerate() {
            let user = group[0];
            assert!(
                (result.per_user[user] - native[j]).abs() < 1e-12,
                "user {user}: group {native:?} vs {:?}",
                result.per_user
            );
        }
    }

    #[test]
    fn efficiency_over_groups() {
        // Σ V_j = u(W_G) − u(∅).
        let weights: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64, -(i as f64) * 0.5]).collect();
        for m in 1..=6 {
            let result = group_shapley(
                &weights,
                &sum_utility(),
                &GroupSvConfig {
                    num_groups: m,
                    seed: 1,
                    round: 1,
                },
            );
            let total: f64 = result.per_group.iter().sum();
            let u = sum_utility();
            let grand = u.of_model(&result.global_model) - u.of_empty();
            assert!(
                (total - grand).abs() < 1e-9,
                "m={m}: Σ V_j = {total} vs {grand}"
            );
        }
    }

    #[test]
    fn per_user_sums_match_per_group() {
        let weights: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
        let result = group_shapley(
            &weights,
            &sum_utility(),
            &GroupSvConfig {
                num_groups: 4,
                seed: 9,
                round: 3,
            },
        );
        let user_total: f64 = result.per_user.iter().sum();
        let group_total: f64 = result.per_group.iter().sum();
        assert!((user_total - group_total).abs() < 1e-9);
    }

    #[test]
    fn utility_evaluation_count_is_two_to_the_m() {
        let weights: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
        for m in [2usize, 3, 5, 9] {
            let result = group_shapley(
                &weights,
                &sum_utility(),
                &GroupSvConfig {
                    num_groups: m,
                    seed: 0,
                    round: 0,
                },
            );
            assert_eq!(result.utility_evaluations, 1 << m);
        }
    }

    #[test]
    fn global_model_is_mean_of_group_models() {
        let weights = vec![vec![2.0], vec![4.0], vec![6.0], vec![8.0]];
        let result = group_shapley(
            &weights,
            &sum_utility(),
            &GroupSvConfig {
                num_groups: 2,
                seed: 3,
                round: 0,
            },
        );
        // Both groups have 2 members, so global = overall mean = 5.
        assert!((result.global_model[0] - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "num_groups")]
    fn zero_groups_panics() {
        let _ = group_shapley(
            &[vec![1.0]],
            &sum_utility(),
            &GroupSvConfig {
                num_groups: 0,
                seed: 0,
                round: 0,
            },
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "past the game's")]
    fn a_coalition_naming_a_missing_player_fails_in_debug_builds() {
        let models = vec![vec![1.0, 2.0]; 3];
        let utility = sum_utility();
        let game = GroupModelGame::new(&models, &utility);
        let _ = game.evaluate(Coalition::from_members(&[0, 3]));
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn ragged_updates_panic() {
        let _ = group_shapley(
            &[vec![1.0], vec![1.0, 2.0]],
            &sum_utility(),
            &GroupSvConfig {
                num_groups: 2,
                seed: 0,
                round: 0,
            },
        );
    }

    /// `u(W) = w_0`, seen through a score vector of `len` copies of it —
    /// linear, and as long as the test wants (a test set's logits are
    /// 11 240 long at Table I).
    struct Stretched {
        len: usize,
    }

    impl ModelUtility for Stretched {
        fn of_model(&self, weights: &[f64]) -> f64 {
            weights[0]
        }

        fn of_empty(&self) -> f64 {
            0.0
        }

        fn scores(&self, weights: &[f64]) -> Vec<f64> {
            vec![weights[0]; self.len]
        }

        fn of_scores(&self, mean_scores: &[f64]) -> f64 {
            assert_eq!(mean_scores.len(), self.len);
            assert!(mean_scores.iter().all(|&s| s == mean_scores[0]));
            mean_scores[0]
        }
    }

    #[test]
    fn table1_sized_game_at_m25_falls_back_to_member_order() {
        // Subset-sum tables over 25 Table-I-sized score vectors would be
        // (2^12 + 2^13) × 11 240 f64 — over a GiB. The game holds the 25
        // score vectors and nothing else.
        let utility = Stretched { len: 11_240 };
        let models: Vec<Vec<f64>> = (0..MAX_PLAYERS).map(|j| vec![j as f64]).collect();
        let game = GroupModelGame::new(&models, &utility);
        assert_eq!((game.players, game.len()), (MAX_PLAYERS, 11_240));
        assert_eq!(game.evaluate(Coalition::from_members(&[4, 24])), 14.0);
        assert_eq!(game.evaluate(Coalition::EMPTY), 0.0);
    }

    /// A utility over rows of `classes` scores that every element of the
    /// mean moves: a row counts `row + 1` when its first maximum is class
    /// `row % classes`, and every element counts the low bits of its
    /// mantissa; the value is the count's square root. A mean summed in
    /// another order, or handed over short, changes it.
    struct RowHits {
        classes: usize,
    }

    /// A row-major vector's rows (the last may be short), numbered.
    fn row_major(v: &[f64], classes: usize) -> Vec<(usize, Vec<f64>)> {
        v.chunks(classes).map(<[f64]>::to_vec).enumerate().collect()
    }

    impl RowHits {
        fn total(&self, rows: &[(usize, Vec<f64>)]) -> u64 {
            let mut total = 0u64;
            for (index, row) in rows {
                if numeric::stats::is_argmax(row, index % self.classes) {
                    total += *index as u64 + 1;
                }
                total += row.iter().map(|s| s.to_bits() % 1021).sum::<u64>();
            }
            total
        }
    }

    impl ModelUtility for RowHits {
        fn of_model(&self, weights: &[f64]) -> f64 {
            (self.total(&row_major(weights, self.classes)) as f64).sqrt()
        }

        fn of_empty(&self) -> f64 {
            -1.0
        }
    }

    /// An unlabelled utility with an `of_tally` of its own, which only a
    /// labelled game applies: the sum of the mean's elements.
    struct OffsetTally;

    impl ModelUtility for OffsetTally {
        fn of_model(&self, weights: &[f64]) -> f64 {
            weights.iter().sum()
        }

        fn of_empty(&self) -> f64 {
            0.0
        }

        fn of_tally(&self, total: f64) -> f64 {
            total + 1.0
        }
    }

    /// [`RowHits`] whose every value also asks a second game — whole or
    /// screened — on the same thread, from inside the first one's walk
    /// while its scratch is checked out.
    struct Nested<'a> {
        rows: RowHits,
        inner: &'a dyn CoalitionUtility,
    }

    impl ModelUtility for Nested<'_> {
        fn of_model(&self, weights: &[f64]) -> f64 {
            let some = Coalition::from_members(&[0, 3, 25]);
            let asked = self.inner.evaluate(some);
            let both = self.inner.evaluate_many(&[Coalition::grand(26), some]);
            assert_eq!(asked.to_bits(), both[1].to_bits());
            let per_element = asked.to_bits() % 1021 + both[0].to_bits() % 1021;
            let rows = row_major(weights, self.rows.classes);
            (self.rows.total(&rows) + per_element * weights.len() as u64) as f64
        }

        fn of_empty(&self) -> f64 {
            -1.0
        }
    }

    /// A utility that is `-0.0` wherever it is asked: of every model and,
    /// when `labels` lists rows, of every hit count.
    struct NegativeZero {
        labels: Option<Vec<usize>>,
    }

    impl ModelUtility for NegativeZero {
        fn of_model(&self, _: &[f64]) -> f64 {
            -0.0
        }

        fn of_empty(&self) -> f64 {
            0.0
        }

        fn labels(&self) -> Option<&[usize]> {
            self.labels.as_deref()
        }

        fn of_tally(&self, _: f64) -> f64 {
            -0.0
        }
    }

    /// `m` score vectors of `dim` full-mantissa values in (−1, 1), a few
    /// of them repeated so that rows tie.
    fn random_models(m: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut models = vec![vec![0.0f64; dim]; m];
        for model in &mut models {
            for d in 0..dim {
                let draw = crate::rng::stream_next(&mut state);
                model[d] = if draw.is_multiple_of(9) && d > 0 {
                    model[d - 1]
                } else {
                    (draw >> 11) as f64 / (1u64 << 52) as f64 - 1.0
                };
            }
        }
        models
    }

    /// `evaluate_many`, `evaluate` and the sum spelled out here agree to
    /// the bit on every coalition of `batch`.
    fn assert_batch_single_oracle<U: ModelUtility>(
        utility: &U,
        models: &[Vec<f64>],
        batch: &[Coalition],
    ) {
        let want: Vec<f64> = batch
            .iter()
            .map(|&coalition| {
                if coalition.is_empty() {
                    return utility.of_empty();
                }
                // Fresh vector, the members in ascending order from 0.0.
                let mut sum = vec![0.0f64; models[0].len()];
                for j in coalition.members() {
                    for (acc, s) in sum.iter_mut().zip(&models[j]) {
                        *acc += s;
                    }
                }
                let inv = 1.0 / coalition.len() as f64;
                let mean: Vec<f64> = sum.iter().map(|sum| sum * inv).collect();
                utility.of_scores(&mean)
            })
            .collect();
        // At both derived walk budgets and at one block a tile.
        for bytes in [L1_BYTES, L2_BYTES, 1] {
            let game = GroupModelGame::new(models, utility).with_walk_bytes(bytes);
            let many = game.evaluate_many(batch);
            assert_eq!(many.len(), batch.len());
            for ((&coalition, &got), want) in batch.iter().zip(&many).zip(&want) {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "batch, {coalition:?}, {bytes} B"
                );
                assert_eq!(
                    game.evaluate(coalition).to_bits(),
                    want.to_bits(),
                    "single, {coalition:?}, {bytes} B"
                );
            }
        }
    }

    /// A batch over `m` players out of raw draws: dense, sparse, grand
    /// and empty coalitions, a duplicate, unsorted unless `presorted`.
    fn random_batch(m: usize, draws: &[u64], presorted: bool) -> Vec<Coalition> {
        let grand = Coalition::grand(m).0;
        let mut batch: Vec<Coalition> = draws
            .iter()
            .map(|&draw| match draw % 8 {
                0 => Coalition::EMPTY,
                1 => Coalition(grand),
                2 | 3 => Coalition(draw >> 3 & draw >> 17 & draw >> 29 & grand),
                _ => Coalition(draw >> 3 & grand),
            })
            .collect();
        if let Some(&first) = batch.first() {
            batch.push(first);
        }
        if presorted {
            batch.sort_unstable_by_key(|c| c.0.reverse_bits());
        }
        batch
    }

    #[test]
    fn negative_zero_utility_keeps_its_sign_through_one_tile_and_many() {
        // Each case at the default walk budget and at one block a tile.
        // A whole vector is one tile at every budget; dim 0 keeps no
        // score and walks none. Labelled, 820 rows of two classes are 52
        // screened blocks, one a tile at one byte: the value is the
        // utility's `-0.0` of the count, whatever the tiles add up to;
        // so is that of seven rows whose label is no class, one block.
        for (labels, dim, tiles) in [
            (None, 7usize, [1usize, 1]),
            (None, 1_640, [1, 1]),
            (None, 0, [0, 0]),
            (Some(vec![0; 820]), 1_640, [1, 52]),
            (Some(vec![1; 7]), 7, [1, 1]),
        ] {
            let utility = NegativeZero { labels };
            let models = random_models(30, dim, 5);
            for (bytes, tiles) in [L2_BYTES, 1].into_iter().zip(tiles) {
                let game = GroupModelGame::new(&models, &utility).with_walk_bytes(bytes);
                assert_eq!(game.walk_tiles(30), tiles, "dim {dim}, {bytes} B");
                let batch = [Coalition::grand(30), Coalition::EMPTY, Coalition(0b101)];
                let want = [(-0.0f64).to_bits(), 0.0f64.to_bits(), (-0.0f64).to_bits()];
                let many = game.evaluate_many(&batch);
                for ((&coalition, got), want) in batch.iter().zip(many).zip(want) {
                    assert_eq!(got.to_bits(), want, "dim {dim}, {tiles} tiles");
                    assert_eq!(game.evaluate(coalition).to_bits(), want);
                }
            }
        }
    }

    /// Argmax hits against a label per row — the shape of the contract's
    /// accuracy utility: counts, so it settles rows. Labelled, the game
    /// counts its hits through the label screen; unlabelled, it values
    /// each coalition's whole mean by `of_model`, which checks row by row.
    #[derive(Clone)]
    struct Hits {
        classes: usize,
        labels: Vec<usize>,
        labelled: bool,
    }

    impl ModelUtility for Hits {
        fn of_model(&self, weights: &[f64]) -> f64 {
            let rows = weights.chunks_exact(self.classes).zip(&self.labels);
            rows.filter(|(row, &label)| numeric::stats::is_argmax(row, label))
                .count() as f64
        }

        fn of_empty(&self) -> f64 {
            -1.0
        }

        fn settled(&self, row: usize, members: &[&[f64]]) -> Option<f64> {
            argmax_settled(members, self.labels[row]).map(f64::from)
        }

        fn labels(&self) -> Option<&[usize]> {
            self.labelled.then_some(&self.labels)
        }
    }

    /// The wrapped utility with every method but `settled` forwarded: the
    /// same game, nothing settled.
    struct Unsettled<'a, U>(&'a U);

    impl<U: ModelUtility> ModelUtility for Unsettled<'_, U> {
        fn of_model(&self, weights: &[f64]) -> f64 {
            self.0.of_model(weights)
        }

        fn of_empty(&self) -> f64 {
            self.0.of_empty()
        }

        fn scores(&self, weights: &[f64]) -> Vec<f64> {
            self.0.scores(weights)
        }

        fn of_scores(&self, mean_scores: &[f64]) -> f64 {
            self.0.of_scores(mean_scores)
        }

        fn labels(&self) -> Option<&[usize]> {
            self.0.labels()
        }

        fn of_tally(&self, total: f64) -> f64 {
            self.0.of_tally(total)
        }
    }

    /// Floats as integers in the same order (`-0.0` just below `+0.0`).
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        bits ^ ((bits >> 63) as u64 >> 1) as i64
    }

    fn from_ordered(key: i64) -> f64 {
        f64::from_bits((key ^ ((key >> 63) as u64 >> 1) as i64) as u64)
    }

    /// `x` moved by `ulps` representable steps.
    fn step(x: f64, ulps: i64) -> f64 {
        from_ordered(ordered(x) + ulps)
    }

    /// `2^e` for `e` in `-1074..=1023`, subnormals included.
    fn pow2(e: i32) -> f64 {
        if e >= -1022 {
            f64::from_bits(((1023 + e) as u64) << 52)
        } else {
            f64::from_bits(1 << (1074 + e))
        }
    }

    /// The least score that beats finite `b`, or `+∞` when none does.
    fn edge(b: f64) -> f64 {
        if !beats(SETTLE_MAX, b) {
            return f64::INFINITY;
        }
        let (mut lo, mut hi) = (i128::from(ordered(b)), i128::from(ordered(SETTLE_MAX)));
        while hi - lo > 1 {
            let mid = (lo + hi).div_euclid(2);
            if beats(from_ordered(mid as i64), b) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        from_ordered(hi as i64)
    }

    /// `m` score vectors of `rows` labelled rows of `classes` scores,
    /// drawn to sit on the settling margin: per row, scores at a random
    /// scale from subnormal to 2^999, then the label (or a rival) a few
    /// ulps past the least score that beats the rest in every member, or
    /// a few ulps either side of it; exact ties and a `±0.0` pair; a NaN,
    /// an infinity or a magnitude past 2^1000 in one member; or nothing.
    fn near_ties(m: usize, rows: usize, classes: usize, seed: u64) -> (Hits, Vec<Vec<f64>>) {
        let mut state = seed;
        let mut next = move || crate::rng::stream_next(&mut state);
        let labels: Vec<usize> = (0..rows)
            .map(|_| (next() % classes as u64) as usize)
            .collect();
        let mut models = vec![vec![0.0f64; rows * classes]; m];
        for (r, &label) in labels.iter().enumerate() {
            let kind = next() % 8;
            let scale = [-1_070, -1_000, -30, 0, 30, 980][(next() % 6) as usize];
            // Members a row apart in magnitude round their partial sums.
            let spread = [0, 19][(next() % 2) as usize];
            let rival = (label + 1 + (next() as usize % classes.max(2))) % classes;
            let odd = (next() % m as u64) as usize;
            let special = [f64::NAN, f64::INFINITY, -f64::INFINITY, step(SETTLE_MAX, 1)];
            let special = special[(next() % 4) as usize];
            for (j, model) in models.iter_mut().enumerate() {
                let row = &mut model[r * classes..(r + 1) * classes];
                let at = scale + (next() % (2 * spread + 1)) as i32 - spread as i32;
                for s in row.iter_mut() {
                    let unit = (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
                    *s = unit * pow2(at.max(-1_074));
                }
                let top = (0..classes)
                    .filter(|&c| c != label)
                    .map(|c| row[c])
                    .fold(f64::NEG_INFINITY, f64::max);
                let ulps = (next() % 9) as i64 - 4;
                match kind {
                    // Hits past the margin, then straddling it.
                    0 if top.is_finite() => row[label] = step(edge(top), ulps.abs()),
                    1 if top.is_finite() => row[label] = step(edge(top), ulps),
                    // Misses past the margin, then straddling it.
                    2 if rival != label => row[rival] = step(edge(row[label]), ulps.abs()),
                    3 if rival != label => row[rival] = step(edge(row[label]), ulps),
                    // Ties, exact and signed-zero.
                    4 if j == odd => row[rival] = row[label],
                    5 => (row[label], row[rival]) = (0.0, -0.0),
                    // A hit past the margin everywhere but one member.
                    6 => {
                        row[label] = step(edge(top), ulps.abs());
                        if j == odd {
                            row[(next() % classes as u64) as usize] = special;
                        }
                    }
                    _ => {}
                }
            }
        }
        let labelled = true;
        (
            Hits {
                classes,
                labels,
                labelled,
            },
            models,
        )
    }

    /// A screened game's rows: the game's labelled lanes.
    fn screened<'g, U>(game: &'g GroupModelGame<'_, U>) -> &'g Margins {
        match &game.lanes {
            Lanes::Margins(margins) => margins,
            Lanes::Means(_) => panic!("the game scores whole vectors"),
        }
    }

    /// Both games value every coalition of `batch` to the bit, batched
    /// and one at a time.
    fn assert_same_values(
        a: &impl CoalitionUtility,
        b: &impl CoalitionUtility,
        batch: &[Coalition],
    ) {
        let bits = |values: Vec<f64>| values.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(a.evaluate_many(batch)), bits(b.evaluate_many(batch)));
        for &coalition in batch.iter().take(24) {
            assert_eq!(
                a.evaluate(coalition).to_bits(),
                b.evaluate(coalition).to_bits()
            );
        }
    }

    #[test]
    fn a_settled_game_prices_only_its_kept_scores() {
        // Every group puts each row's label a whole unit ahead.
        let labels: Vec<usize> = (0..30).map(|r| r * 7 % 3).collect();
        let model: Vec<f64> = labels
            .iter()
            .flat_map(|&label| (0..3).map(move |c| f64::from(u8::from(c == label))))
            .collect();
        let models = vec![model; 4];
        let utility = Hits {
            classes: 3,
            labels,
            labelled: true,
        };
        let game = GroupModelGame::new(&models, &utility);
        let margins = screened(&game);
        assert_eq!((margins.kept.len(), margins.settled), (0, Some(30.0)));
        assert_eq!(game.eval_flops(), 0);
        let bare = Unsettled(&utility);
        let plain = GroupModelGame::new(&models, &bare);
        // Thirty rows of two rivals, a screened difference half an element.
        assert_eq!(plain.eval_flops(), 30 * 2 * (4 / 2 + 2) / 2);
        assert_same_values(&game, &plain, &Coalition::powerset(4).collect::<Vec<_>>());
    }

    /// The settled tally of each row of a [`Hits`] game, or `None`.
    fn settled_rows(utility: &Hits, models: &[Vec<f64>]) -> Vec<Option<f64>> {
        let classes = utility.classes;
        (0..utility.labels.len())
            .map(|r| {
                let members: Vec<&[f64]> = models
                    .iter()
                    .map(|m| &m[r * classes..][..classes])
                    .collect();
                utility.settled(r, &members)
            })
            .collect()
    }

    /// What a [`Hits`] game values `coalition` at, spelled out: each
    /// member's scores added in ascending member order to a vector of
    /// `0.0`, scaled by `1/|S|`, then per row its settled tally (from
    /// [`settled_rows`]) when the row settles and
    /// [`numeric::stats::is_argmax`] on the mean when it does not.
    fn hits_oracle(
        utility: &Hits,
        models: &[Vec<f64>],
        settled: &[Option<f64>],
        coalition: Coalition,
    ) -> f64 {
        if coalition.is_empty() {
            return utility.of_empty();
        }
        let mut sum = vec![0.0f64; models[0].len()];
        for j in coalition.members() {
            for (acc, s) in sum.iter_mut().zip(&models[j]) {
                *acc += s;
            }
        }
        let inv = 1.0 / coalition.len() as f64;
        let mean: Vec<f64> = sum.iter().map(|sum| sum * inv).collect();
        let mut total = 0.0;
        for (r, row) in mean.chunks_exact(utility.classes).enumerate() {
            total += settled[r].unwrap_or_else(|| {
                f64::from(u8::from(numeric::stats::is_argmax(row, utility.labels[r])))
            });
        }
        utility.of_tally(total)
    }

    /// The game's values on `batch` in every instantiation, batched and
    /// the first 16 one at a time, equal `want` to the bit.
    fn assert_walk_in_every_isa<U: ModelUtility>(
        game: &GroupModelGame<'_, U>,
        batch: &[Coalition],
        want: &[f64],
        what: &str,
    ) {
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for isa in Isa::each() {
            let mut got = vec![0.0; batch.len()];
            game.values_on(isa, batch, &mut got);
            assert_eq!(bits(&got), bits(want), "{isa:?}: {what}");
            for (&coalition, want) in batch.iter().zip(want).take(16) {
                let mut one = [0.0];
                game.values_on(isa, &[coalition], &mut one);
                assert_eq!(
                    one[0].to_bits(),
                    want.to_bits(),
                    "{isa:?}: {what}, {coalition:?}"
                );
            }
        }
    }

    /// Batches over `m ≥ 4` players whose coalitions, in trie pre-order,
    /// share none, some or all of their member prefix with the one
    /// before: disjoint lowest members; siblings under a common prefix;
    /// a chain of supersets up to the grand coalition, duplicates and
    /// the grand coalition minus each player.
    fn prefix_batches(m: usize) -> Vec<(&'static str, Vec<Coalition>)> {
        let grand = Coalition::grand(m).0;
        let of = |members: &[usize]| Coalition::from_members(members);
        let none = (0..m).map(|j| of(&[j, (j + 2) % m])).collect();
        let some = vec![
            of(&[0, 1, 2]),
            of(&[0, 1, 3]),
            of(&[0, 1, 3, m - 1]),
            of(&[0, 2, 3]),
            of(&[0, 2, m - 1]),
            of(&[1, 2]),
            of(&[1, 3]),
        ];
        let mut all: Vec<Coalition> = (1..=m).map(Coalition::grand).collect();
        all.extend([of(&[0, 2, m - 1]); 3]);
        all.extend((0..m).map(|j| Coalition(grand & !(1 << j))));
        all.push(Coalition(grand));
        let mut mixed: Vec<Coalition> = [&none, &some, &all]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        mixed.reverse();
        vec![
            ("none", none),
            ("some", some),
            ("all", all),
            ("mixed", mixed),
        ]
    }

    #[test]
    fn walk_equals_the_spelled_out_oracle_in_every_instantiation_at_caps_1_and_2() {
        use crate::estimator::{Exact, Stratified, SvEstimator};
        use crate::stratified::StratifiedConfig;
        use crate::utility::games::THREAD_CAP;
        use crate::utility::utility_fn;
        let _cap = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Unlabelled, the walk values whole means; labelled, it screens.
        for labelled in [false, true] {
            let (mut games, mut partly) = (0usize, 0usize);
            for m in [1usize, 4, 9, 32] {
                for rows in [1usize, 7, 8, 9, 15, 16, 17, 410] {
                    // The second level of a sharded round is 32 × 410 × 4.
                    for classes in [4usize, 10].into_iter().take(if m < 32 { 2 } else { 1 }) {
                        let seed = (m * 1_000 + rows * 10 + classes) as u64;
                        let (utility, models) = near_ties(m, rows, classes, seed);
                        let utility = Hits {
                            labelled,
                            ..utility
                        };
                        let game = GroupModelGame::new(&models, &utility);
                        games += 1;
                        if labelled {
                            let margins = screened(&game);
                            let kept = !margins.kept.is_empty();
                            partly += usize::from(margins.settled.is_some() && kept);
                        } else {
                            assert!(matches!(game.lanes, Lanes::Means(_)));
                        }
                        let mut batch: Vec<Coalition> = if m <= 9 {
                            Coalition::powerset(m).collect()
                        } else {
                            let draws: Vec<u64> = (0..300u64)
                                .map(|i| seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                                .collect();
                            random_batch(m, &draws, false)
                        };
                        if m >= 4 {
                            batch.extend(prefix_batches(m).into_iter().flat_map(|(_, b)| b));
                        }
                        let settled = settled_rows(&utility, &models);
                        let oracle = |c: Coalition| hits_oracle(&utility, &models, &settled, c);
                        let want: Vec<f64> = batch.iter().map(|&c| oracle(c)).collect();
                        let what = format!("m {m}, {rows} rows x {classes}, labelled {labelled}");
                        assert_walk_in_every_isa(&game, &batch, &want, &what);
                        if m >= 4 && rows == 410 {
                            // Each prefix shape alone, in trie order and not.
                            for (shape, mut batch) in prefix_batches(m) {
                                for _ in 0..2 {
                                    let want: Vec<f64> = batch.iter().map(|&c| oracle(c)).collect();
                                    assert_walk_in_every_isa(&game, &batch, &want, shape);
                                    batch.sort_unstable_by_key(|c| c.0.reverse_bits());
                                }
                            }
                        }
                        // The estimators over the game and over the oracle.
                        let oracle = utility_fn(m, oracle);
                        for cap in [1usize, 2] {
                            par::set_max_threads(cap);
                            if m <= 9 {
                                let (got, want) = (Exact.estimate(&game), Exact.estimate(&oracle));
                                assert_eq!(
                                    bits(&got.values),
                                    bits(&want.values),
                                    "cap {cap}, m {m}"
                                );
                            } else {
                                let stratified = Stratified {
                                    config: StratifiedConfig {
                                        samples_per_stratum: 1,
                                        seed,
                                    },
                                };
                                let got = stratified.estimate(&game);
                                let want = stratified.estimate(&oracle);
                                assert_eq!(
                                    bits(&got.values),
                                    bits(&want.values),
                                    "cap {cap}, m {m}"
                                );
                            }
                        }
                    }
                }
            }
            par::set_max_threads(0);
            assert!(
                !labelled || partly * 2 >= games,
                "{partly} of {games} games partly settled"
            );

            // Every class count from 2 to 17, at every last-block width.
            for classes in 2..=17usize {
                for rows in [1usize, 7, 8, 9, 15, 16, 17, 410] {
                    let seed = (rows * 100 + classes) as u64;
                    let (utility, models) = near_ties(4, rows, classes, seed);
                    let utility = Hits {
                        labelled,
                        ..utility
                    };
                    let game = GroupModelGame::new(&models, &utility);
                    let mut batch: Vec<Coalition> = Coalition::powerset(4).collect();
                    batch.extend(prefix_batches(4).into_iter().flat_map(|(_, b)| b));
                    let settled = settled_rows(&utility, &models);
                    let want: Vec<f64> = batch
                        .iter()
                        .map(|&c| hits_oracle(&utility, &models, &settled, c))
                        .collect();
                    assert_walk_in_every_isa(
                        &game,
                        &batch,
                        &want,
                        &format!("{rows} rows x {classes}"),
                    );
                }
            }

            // Every one of 64 players in one coalition.
            let (utility, models) = near_ties(64, 17, 4, 64);
            let utility = Hits {
                labelled,
                ..utility
            };
            let game = GroupModelGame::new(&models, &utility);
            let draws: Vec<u64> = (0..200u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect();
            let mut batch = random_batch(64, &draws, false);
            batch.extend(prefix_batches(64).into_iter().flat_map(|(_, b)| b));
            let settled = settled_rows(&utility, &models);
            let want: Vec<f64> = batch
                .iter()
                .map(|&c| hits_oracle(&utility, &models, &settled, c))
                .collect();
            assert!(batch.contains(&Coalition::grand(64)));
            assert_walk_in_every_isa(&game, &batch, &want, "m 64");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        #[test]
        fn prop_settled_and_unsettled_games_agree_to_the_bit_on_near_ties(
            classes_pick in 0usize..4,
            seed in any::<u64>(),
            draws in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            use crate::estimator::{Exact, Stratified, SvEstimator};
            use crate::stratified::StratifiedConfig;
            use crate::utility::RestrictedGame;
            let classes = [1usize, 2, 3, 10][classes_pick];
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (mut games, mut engaged) = (0usize, 0usize);
            let rivals = classes.saturating_sub(1).max(1);
            for m in 1..=12usize {
                // A walk budget of one screened block (16 rows) a tile over
                // the m players and the grand coalition's m levels: one
                // game inside one tile, one past it. Settling keeps fewer
                // rows, so the tiles are counted on the game that keeps
                // them all.
                let bytes = SCREEN_ROWS * rivals * size_of::<f32>() * 2 * m;
                let pick = draws[m % draws.len()] as usize;
                for (rows, tiles) in [(1 + pick % 16, 1), (17 + pick % 16, 2)] {
                    let (utility, models) = near_ties(m, rows, classes, seed ^ (m * rows) as u64);
                    let game = GroupModelGame::new(&models, &utility).with_walk_bytes(bytes);
                    let bare = Unsettled(&utility);
                    let plain = GroupModelGame::new(&models, &bare).with_walk_bytes(bytes);
                    prop_assert_eq!(plain.walk_tiles(m), tiles);
                    games += 1;
                    engaged += usize::from(screened(&game).settled.is_some());
                    assert_same_values(&game, &plain, &Coalition::powerset(m).collect::<Vec<_>>());
                    prop_assert_eq!(
                        bits(&Exact.estimate(&game).values),
                        bits(&Exact.estimate(&plain).values)
                    );
                    let alive: Vec<usize> = (0..m).filter(|j| pick >> j & 1 == 1 || *j == 0).collect();
                    let restricted = RestrictedGame::new(&game, alive.clone());
                    let restricted_plain = RestrictedGame::new(&plain, alive.clone());
                    assert_same_values(
                        &restricted,
                        &restricted_plain,
                        &Coalition::powerset(alive.len()).collect::<Vec<_>>(),
                    );
                    prop_assert_eq!(
                        bits(&Exact.estimate(&restricted).values),
                        bits(&Exact.estimate(&restricted_plain).values)
                    );
                }
            }
            // Past the exact cap: 64 groups, sampled.
            let (utility, models) = near_ties(64, 2 + (seed % 5) as usize, classes, !seed);
            let game = GroupModelGame::new(&models, &utility);
            let bare = Unsettled(&utility);
            let plain = GroupModelGame::new(&models, &bare);
            games += 1;
            engaged += usize::from(screened(&game).settled.is_some());
            assert_same_values(&game, &plain, &random_batch(64, &draws, false));
            let stratified = Stratified {
                config: StratifiedConfig { samples_per_stratum: 1, seed },
            };
            prop_assert_eq!(
                bits(&stratified.estimate(&game).values),
                bits(&stratified.estimate(&plain).values)
            );
            prop_assert!(engaged * 4 >= games * 3, "settling engaged in {} of {} games", engaged, games);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_batch_equals_single_equals_spelled_out_oracle(
            m in 1usize..=40,
            dim_pick in 0usize..5,
            classes_pick in 0usize..3,
            seed in any::<u64>(),
            draws in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            let dim = [1usize, 7, 64, 650, 1_640][dim_pick];
            let classes = [1usize, 4, 10][classes_pick];
            let models = random_models(m, dim, seed);
            let batch = random_batch(m, &draws, seed.is_multiple_of(2));
            let batches = [&batch[..], &batch[..batch.len().min(1)], &[]];
            // Whole vectors: one tile at every budget, one block a tile
            // included, valued by `of_scores` alone.
            let rows = RowHits { classes };
            let game = GroupModelGame::new(&models, &rows).with_walk_bytes(1);
            prop_assert_eq!(game.walk_tiles(m), 1);
            for batch in batches {
                assert_batch_single_oracle(&rows, &models, batch);
                assert_batch_single_oracle(&OffsetTally, &models, batch);
            }
            // Labelled where the classes cut the vector into rows:
            // screened, settling or not, and worth the same hits counted row
            // by row on the whole mean; with every row kept, a block of 16
            // rows a tile at one byte.
            let label = |r: usize| (seed >> (r % 61)) as usize % classes;
            if dim.is_multiple_of(classes) {
                let hits = Hits { classes, labels: (0..dim / classes).map(label).collect(), labelled: true };
                let bare = Unsettled(&hits);
                let game = GroupModelGame::new(&models, &bare).with_walk_bytes(1);
                prop_assert!(matches!(game.lanes, Lanes::Margins(_)));
                prop_assert_eq!(game.walk_tiles(m), (dim / classes).div_ceil(SCREEN_ROWS));
                let row_by_row = Hits { labelled: false, ..hits.clone() };
                assert_same_values(
                    &GroupModelGame::new(&models, &hits),
                    &GroupModelGame::new(&models, &row_by_row),
                    &batch,
                );
                for batch in batches {
                    assert_batch_single_oracle(&hits, &models, batch);
                    assert_batch_single_oracle(&bare, &models, batch);
                }
            }
            // No label, 3 (a divisor of no `dim` here) or `dim + 1`:
            // labels that cut the vector into no rows leave it whole,
            // valued by `of_scores`.
            for count in [0, 3, dim + 1] {
                let hits = Hits { classes, labels: (0..count).map(label).collect(), labelled: true };
                let game = GroupModelGame::new(&models, &hits);
                prop_assert!(matches!(game.lanes, Lanes::Means(_)), "{} labels", count);
                assert_batch_single_oracle(&hits, &models, &batch);
            }
        }

        #[test]
        fn prop_utility_that_asks_another_game_mid_walk(
            m in 26usize..=40,
            seed in any::<u64>(),
            draws in proptest::collection::vec(any::<u64>(), 1..12),
        ) {
            // One walk inside the other's `of_scores`, on one thread-local
            // scratch: a whole-vector game or a screened one.
            let inner_models = random_models(26, 6, !seed);
            let whole = RowHits { classes: 2 };
            let labelled = Hits { classes: 2, labels: vec![0, 1, 1], labelled: true };
            let (whole, labelled) = (
                GroupModelGame::new(&inner_models, &whole),
                GroupModelGame::new(&inner_models, &labelled),
            );
            let nested = Nested {
                rows: RowHits { classes: 10 },
                inner: if seed.is_multiple_of(2) { &whole } else { &labelled },
            };
            let models = random_models(m, 650, seed);
            assert_batch_single_oracle(&nested, &models, &random_batch(m, &draws, false));
        }

        #[test]
        fn prop_group_efficiency_any_m(
            n in 2usize..8,
            seed in any::<u64>(),
            round in 0u64..10,
        ) {
            let weights: Vec<Vec<f64>> = (0..n)
                .map(|i| vec![(i as f64).sin(), (i as f64).cos()])
                .collect();
            for m in 1..=n {
                let result = group_shapley(
                    &weights,
                    &sum_utility(),
                    &GroupSvConfig { num_groups: m, seed, round },
                );
                let total: f64 = result.per_group.iter().sum();
                let u = sum_utility();
                let grand = u.of_model(&result.global_model) - u.of_empty();
                prop_assert!((total - grand).abs() < 1e-9);
                // Every user appears in exactly one group.
                let mut seen = vec![false; n];
                for g in &result.groups {
                    for &i in g {
                        prop_assert!(!seen[i], "user {i} in two groups");
                        seen[i] = true;
                    }
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }
    }

    /// `m` score vectors of `rows` labelled rows of `classes` scores,
    /// drawn for the label screen at a random scale: per row, members
    /// that disagree on the label by up to two units; near ties inside
    /// the screen's threshold; differences whose sum over the grand
    /// coalition cancels to a few `f32` ulps of its terms; `±0.0` label
    /// and rival; subnormal scores; scores past 2^100, which the screen
    /// leaves to the exact decision; a NaN or an infinity in one member;
    /// or the label a unit ahead in every member, which settles — every
    /// row, when `settle_all`.
    fn screen_rows(
        m: usize,
        rows: usize,
        classes: usize,
        seed: u64,
        settle_all: bool,
    ) -> (Hits, Vec<Vec<f64>>) {
        let mut state = seed;
        let mut next = move || crate::rng::stream_next(&mut state);
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0;
        let mut state = !seed;
        let mut pick = move |n: usize| (crate::rng::stream_next(&mut state) % n as u64) as usize;
        let mut labels: Vec<usize> = (0..rows).map(|_| pick(classes)).collect();
        let mut models = vec![vec![0.0f64; rows * classes]; m];
        for r in 0..rows {
            let label = labels[r];
            // Row 0 always ties: the screen leaves it open.
            let kind = match (settle_all, r) {
                (true, _) => 7,
                (false, 0) => 1,
                _ => pick(8),
            };
            let scale = match kind {
                4 => pow2(-1_070),
                5 => pow2(101 + pick(10) as i32),
                _ => pow2(pick(40) as i32 - 20),
            };
            let rival = (label + 1 + pick(classes - 1)) % classes;
            let odd = pick(m);
            let special = [f64::NAN, f64::INFINITY, -f64::INFINITY][pick(3)];
            let mut cancel = 0.0f64;
            for (j, model) in models.iter_mut().enumerate() {
                let row = &mut model[r * classes..(r + 1) * classes];
                for s in row.iter_mut() {
                    *s = unit() * scale;
                }
                let top = (0..classes)
                    .filter(|&c| c != label)
                    .map(|c| row[c])
                    .fold(f64::NEG_INFINITY, f64::max);
                match kind {
                    // Disagreeing members, also past 2^100 and subnormal.
                    0 | 4 | 5 => row[label] = top + 2.0 * unit() * scale,
                    // Near ties: a relative 2^-20 either way, or exact.
                    1 => {
                        row[label] = match pick(3) {
                            0 => top,
                            _ => top + top.abs() * unit() * pow2(-20),
                        }
                    }
                    // The grand coalition's difference cancels.
                    2 => {
                        let d = if j + 1 < m {
                            unit() * scale
                        } else {
                            -cancel + unit() * scale * pow2(-22)
                        };
                        cancel += d;
                        row[label] = row[rival] + d;
                    }
                    3 => {
                        (row[label], row[rival]) = if pick(2) == 0 {
                            (0.0, -0.0)
                        } else {
                            (-0.0, 0.0)
                        };
                        for c in (0..classes).filter(|&c| c != label && c != rival) {
                            row[c] = -scale;
                        }
                    }
                    6 => {
                        row[label] = top + scale;
                        if j == odd {
                            row[pick(classes)] = special;
                        }
                    }
                    _ => row[label] = top + scale,
                }
            }
            // A label that is no class: never a hit.
            if kind == 0 && pick(4) == 0 {
                labels[r] = classes;
            }
        }
        let labelled = true;
        (
            Hits {
                classes,
                labels,
                labelled,
            },
            models,
        )
    }

    /// Rows of kept row order the label screen leaves open for
    /// `coalition`: its differences summed in `f32` in member order, as
    /// the walk sums them, neither above every threshold nor below one.
    fn screen_open_rows<U>(game: &GroupModelGame<'_, U>, coalition: Coalition) -> usize {
        let margins = screened(game);
        let thresholds = margins.thresholds.as_flattened();
        (0..margins.kept.len())
            .filter(|&k| {
                let (mut above, mut below) = (true, false);
                for rival in 0..margins.rivals {
                    let at =
                        (k / SCREEN_ROWS * margins.rivals + rival) * SCREEN_ROWS + k % SCREEN_ROWS;
                    let sum = coalition
                        .members()
                        .fold(0.0f32, |sum, j| sum + margins.margins[j][at]);
                    above &= sum > thresholds[at];
                    below |= sum < -thresholds[at];
                }
                !above && !below
            })
            .count()
    }

    #[test]
    fn screened_walk_spans_walk_tiles() {
        // 64 players over 1 500 rows of 10 classes: 94 16-row blocks of
        // nine differences, seven tiles once the grand coalition's levels
        // join the players' vectors. Each row's scale is its own (2^-20
        // to 2^20), and over the grand coalition its label and one rival
        // cancel to 2^-23 of it, either way — inside the row's threshold,
        // but not inside one of a row far smaller, so a tile screened
        // against another tile's thresholds decides rows wrongly.
        let (m, rows, classes) = (64usize, 1_500usize, 10usize);
        let mut state = 41u64;
        let mut unit =
            move || (crate::rng::stream_next(&mut state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0;
        let labels: Vec<usize> = (0..rows).map(|r| r * 7 % classes).collect();
        let mut models = vec![vec![0.0f64; rows * classes]; m];
        for (r, &label) in labels.iter().enumerate() {
            let scale = pow2((r % 41) as i32 - 20);
            let rival = (label + 1 + r % (classes - 1)) % classes;
            let mut cancel = 0.0f64;
            for (j, model) in models.iter_mut().enumerate() {
                let row = &mut model[r * classes..(r + 1) * classes];
                row.fill(-4.0 * scale);
                row[rival] = unit() * scale;
                let d = if j + 1 < m {
                    unit() * scale
                } else {
                    -cancel + scale * pow2(-23) * if r % 2 == 0 { 1.0 } else { -1.0 }
                };
                cancel += d;
                row[label] = row[rival] + d;
            }
        }
        let utility = Hits {
            classes,
            labels,
            labelled: true,
        };
        let game = GroupModelGame::new(&models, &utility);
        assert_eq!(game.walk_tiles(m), 7);
        let draws: Vec<u64> = (0..40u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut batch = random_batch(m, &draws, false);
        batch.extend(prefix_batches(m).into_iter().flat_map(|(_, b)| b));
        let unsettled = vec![None; rows];
        let want: Vec<f64> = batch
            .iter()
            .map(|&c| hits_oracle(&utility, &models, &unsettled, c))
            .collect();
        assert!(screen_open_rows(&game, Coalition::grand(m)) >= rows / 2);
        assert_walk_in_every_isa(&game, &batch, &want, "tiles");
    }

    #[test]
    fn screen_threshold_covers_rounding_accumulated_over_64_members() {
        // Label 0 against a rival scored 0: the row's difference is the
        // label's score. Member 0 holds 1, members 1–62 hold 1.25·2^-23,
        // so each f32 add after the first rounds a quarter ulp away, and
        // member 63 cancels the exact sum up to `t`·2^-25. The grand
        // coalition's f32 sum then misses the true one by about 62·2^-25
        // with the opposite sign for small `t`: a threshold below that
        // (2^-16 of the scores' magnitudes divided by 32 or more)
        // decides those rows wrongly.
        let rows: Vec<i32> = (-20..=60).collect();
        let small = 1.25 * pow2(-23);
        let exact = 1.0 + 62.0 * small;
        let mut models = vec![vec![0.0f64; rows.len() * 2]; 64];
        for (r, &t) in rows.iter().enumerate() {
            models[0][2 * r] = 1.0;
            for model in &mut models[1..63] {
                model[2 * r] = small;
            }
            models[63][2 * r] = -exact + f64::from(t) * pow2(-25);
        }
        let utility = Hits {
            classes: 2,
            labels: vec![0; rows.len()],
            labelled: true,
        };
        let game = GroupModelGame::new(&models, &utility);
        let batch = [
            Coalition::grand(64),
            Coalition(u64::MAX >> 1),
            Coalition(1 << 63 | 1),
        ];
        let unsettled = vec![None; rows.len()];
        let want: Vec<f64> = batch
            .iter()
            .map(|&c| hits_oracle(&utility, &models, &unsettled, c))
            .collect();
        // t ≥ 0 hits: the mean's first maximum is the label on a tie.
        assert_eq!(want[0], 61.0);
        assert!(screen_open_rows(&game, Coalition::grand(64)) >= 60);
        assert_walk_in_every_isa(&game, &batch, &want, "accumulated rounding");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_screened_walk_equals_the_f64_oracle_in_every_instantiation_at_caps_1_and_2(
            classes in 2usize..=16,
            m in 1usize..=64,
            rows in 1usize..70,
            seed in any::<u64>(),
            draws in proptest::collection::vec(any::<u64>(), 1..40),
        ) {
            use crate::estimator::{Exact, Stratified, SvEstimator};
            use crate::stratified::StratifiedConfig;
            use crate::utility::games::THREAD_CAP;
            use crate::utility::utility_fn;
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for settle_all in [false, true] {
                let (utility, models) = screen_rows(m, rows, classes, seed, settle_all);
                let game = GroupModelGame::new(&models, &utility);
                prop_assert_eq!(screened(&game).kept.is_empty(), settle_all);
                let mut batch: Vec<Coalition> = if m <= 8 {
                    Coalition::powerset(m).collect()
                } else {
                    random_batch(m, &draws, false)
                };
                if m >= 4 {
                    batch.extend(prefix_batches(m).into_iter().flat_map(|(_, b)| b));
                }
                batch.push(Coalition::grand(m));
                // From scratch: no row settled, every mean summed in f64.
                let unsettled = vec![None; rows];
                let oracle = |c: Coalition| hits_oracle(&utility, &models, &unsettled, c);
                let want: Vec<f64> = batch.iter().map(|&c| oracle(c)).collect();
                let what = format!("m {m}, {rows} rows x {classes}, settle_all {settle_all}");
                assert_walk_in_every_isa(&game, &batch, &want, &what);
                if !settle_all {
                    let open: usize = batch.iter().map(|&c| screen_open_rows(&game, c)).sum();
                    prop_assert!(open > 0, "{}: the screen decided every row", what);
                }
                if m <= 12 {
                    let _cap = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
                    let oracle = utility_fn(m, oracle);
                    for cap in [1usize, 2] {
                        par::set_max_threads(cap);
                        let (got, want) = if m <= 8 {
                            (Exact.estimate(&game), Exact.estimate(&oracle))
                        } else {
                            let stratified = Stratified {
                                config: StratifiedConfig { samples_per_stratum: 1, seed },
                            };
                            (stratified.estimate(&game), stratified.estimate(&oracle))
                        };
                        prop_assert_eq!(bits(&got.values), bits(&want.values), "cap {}, {}", cap, what);
                    }
                    par::set_max_threads(0);
                }
            }
        }
    }
}
