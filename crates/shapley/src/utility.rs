//! Utility-function abstractions.
//!
//! Two flavours exist because the paper's two SV methods consume
//! different objects:
//!
//! * [`CoalitionUtility`] — `u(S)` over *player sets*. The native method
//!   (Eq. 1) retrains a model per coalition, so the utility is a set
//!   function. Implementations are usually expensive; wrap them in
//!   [`CachedUtility`] so each coalition is evaluated once.
//! * [`ModelUtility`] — `u(W)` over *model weights*. GroupSV builds
//!   coalition models by averaging group aggregates and only then asks
//!   for their utility (test-set accuracy in the paper).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use numeric::par;

use crate::coalition::Coalition;

/// A cooperative-game utility `u(S)` over coalitions of players.
pub trait CoalitionUtility {
    /// Number of players `n = |I|`.
    fn num_players(&self) -> usize;

    /// Utility of a coalition (empty coalitions allowed).
    fn evaluate(&self, coalition: Coalition) -> f64;

    /// Values a batch: slot `i` is `evaluate(coalitions[i])` to the bit,
    /// whatever the batch's order, duplicates or length. A game whose
    /// neighbouring coalitions share work overrides it
    /// ([`crate::group::GroupModelGame`]), a memo its misses
    /// ([`CachedUtility`]); the default asks one at a time. A game runs it
    /// on the calling thread: callers fan batches of at most 2^12
    /// (`MAX_BATCH`) out over [`numeric::par`], never the reverse.
    fn evaluate_many(&self, coalitions: &[Coalition]) -> Vec<f64> {
        coalitions.iter().map(|&c| self.evaluate(c)).collect()
    }

    /// What one [`Self::evaluate`] costs, in the flop-equivalents
    /// [`numeric::par`] sizes regions by. The default is a lease's worth —
    /// a game that retrains per coalition; a game that knows its
    /// arithmetic states it, a wrapper forwards its inner game's.
    fn eval_flops(&self) -> usize {
        par::LEASE_FLOPS
    }
}

/// Most coalitions a caller puts into one
/// [`CoalitionUtility::evaluate_many`] batch.
pub(crate) const MAX_BATCH: usize = 1 << 12;

/// `utility`'s values of `coalitions`, in order, through its batch call:
/// the list cut into equal contiguous runs — one per thread it is worth
/// at the game's [`CoalitionUtility::eval_flops`], which also balances a
/// game that retrains per coalition, none longer than `MAX_BATCH` — each
/// a [`numeric::par`] slot. A list in member-trie pre-order
/// (`reverse_bits`, see [`crate::group`]) hands each run neighbours that
/// share member prefixes.
pub(crate) fn evaluate_in_runs<U: CoalitionUtility + Sync + ?Sized>(
    utility: &U,
    coalitions: &[Coalition],
) -> Vec<f64> {
    let (len, flops) = (coalitions.len(), utility.eval_flops());
    let runs = (len / par::items_per_lease(flops))
        .min(par::max_threads())
        .max(len.div_ceil(MAX_BATCH));
    let run_flops = (len / runs.max(1)).saturating_mul(flops);
    par::par_map_indices(runs, par::items_per_lease(run_flops), |r| {
        utility.evaluate_many(&coalitions[r * len / runs..(r + 1) * len / runs])
    })
    .concat()
}

/// Utility of a *model*, `u(W)`, plus the value assigned to the empty
/// coalition (no model at all — the paper's implicit `u(∅)`, e.g. the
/// accuracy of random guessing).
///
/// # The scores view
///
/// [`crate::group::GroupModelGame`] asks for the utility of `2^m`
/// coalition *averages* of the same `m` group models. When the expensive
/// part of `u` is linear in the weights — test accuracy of a linear
/// model is `argmax(X · W)`, and `X · mean_j(W_j) = mean_j(X · W_j)` — a
/// utility can expose that part as [`ModelUtility::scores`]; the game
/// then computes it once per group and averages the scores instead of
/// the weights. Contract: `scores` is linear, and
/// `of_model(w) == of_scores(&scores(w))`. The defaults are the
/// identity view (`scores(w) = w`, `of_scores = of_model`), so closures
/// and every utility without linear structure behave as if the view did
/// not exist. A coalition is valued at `of_scores` of its members' whole
/// mean, unless the utility is labelled (below).
///
/// # The label view
///
/// Accuracy scores a mean score vector by its rows — one row of class
/// scores per test example — counting a row `1` when its first maximum
/// ([`numeric::stats::is_argmax`]: the lowest index among equal maxima,
/// NaN never) is the row's label and `0` otherwise. A utility that is
/// exactly that names each row's label in [`ModelUtility::labels`]: the
/// row length is the score length over the number of labels, when that
/// divides exactly and is not zero (otherwise the vector is scored whole,
/// as if unlabelled). The game then counts the hits itself: it screens
/// each row's label-minus-rival differences in `f32` and decides only the
/// rows the screen leaves open in `f64` ([`crate::group`], "The label
/// screen"), and values the coalition at [`ModelUtility::of_tally`] of
/// the count. Contract: `of_scores(v) == of_tally(hits)` where `hits`
/// counts the rows of `v` whose first maximum is their label. A label
/// that is no class index never hits.
///
/// # Settled rows
///
/// Often a row comes out the same for every coalition: classified right,
/// or wrong, by every group model with a margin no mean can erase. A
/// labelled utility names that count in [`ModelUtility::settled`], and
/// the game adds it once instead of screening the row per coalition
/// ([`crate::group`], "Settled rows"). A utility may answer only if its
/// counts add exactly, because the settled counts join the sum in another
/// order than the walk's. The default answers nothing; an unlabelled
/// utility is never asked.
pub trait ModelUtility {
    /// Utility of the model with flat weights `w`.
    fn of_model(&self, weights: &[f64]) -> f64;

    /// Utility of the empty coalition.
    fn of_empty(&self) -> f64;

    /// The linear view of a model that coalition averaging commutes
    /// with. Every model's score vector has the same length.
    fn scores(&self, weights: &[f64]) -> Vec<f64> {
        weights.to_vec()
    }

    /// Every model's [`Self::scores`] to the bit, in one vector row by
    /// row: row `g` of model `j` of `m` at `(g · m + j) · G`, `G` being
    /// the row length a labelled utility's labels divide the vectors into
    /// (trait docs, "The label view") or, when there is none, their whole
    /// length (model after model). The default asks [`Self::scores`] per
    /// model; a utility whose scores come from one product overrides it to
    /// form them all in one (the contract's accuracy utility: one test-set
    /// GEMM over every model's columns side by side, whose rows are exactly
    /// this layout).
    ///
    /// # Panics
    ///
    /// The default panics when the score vectors differ in length.
    fn scores_many(&self, models: &[Vec<f64>]) -> Vec<f64> {
        let scores: Vec<Vec<f64>> = models.iter().map(|w| self.scores(w)).collect();
        let full = scores.first().map_or(0, Vec::len);
        assert!(
            scores.iter().all(|s| s.len() == full),
            "all group models must share a dimension"
        );
        let granule = granule_of(self, full).unwrap_or(full).max(1);
        let mut out = Vec::with_capacity(full * scores.len());
        for at in (0..full).step_by(granule) {
            for s in &scores {
                out.extend_from_slice(&s[at..at + granule]);
            }
        }
        out
    }

    /// Utility of a model given the mean of its members' `scores`.
    fn of_scores(&self, mean_scores: &[f64]) -> f64 {
        self.of_model(mean_scores)
    }

    /// The count of row `row` that the mean of *every* non-empty subset
    /// of `members` — that row of each group's scores — is certain to get,
    /// whatever order the game sums it in; `None` when some mean could
    /// count otherwise (trait docs, "Settled rows").
    fn settled(&self, row: usize, members: &[&[f64]]) -> Option<f64> {
        let _ = (row, members);
        None
    }

    /// Each row's label when the utility counts first-maximum hits (trait
    /// docs, "The label view"); `None` otherwise.
    fn labels(&self) -> Option<&[usize]> {
        None
    }

    /// Utility of a labelled vector from its hit count.
    fn of_tally(&self, total: f64) -> f64 {
        total
    }
}

/// The row length of score vectors of length `full` under `utility`'s
/// labels: `full` over their count when that divides exactly and is not
/// zero; `None` (unlabelled, or labels that make no rows): the vectors
/// are scored whole.
pub(crate) fn granule_of<U: ModelUtility + ?Sized>(utility: &U, full: usize) -> Option<usize> {
    let rows = utility.labels()?.len();
    (rows > 0 && full >= rows && full.is_multiple_of(rows)).then(|| full / rows)
}

/// Blanket impl so closures `(Fn(&[f64]) -> f64, f64)` can be used as a
/// [`ModelUtility`] via [`model_utility_fn`].
pub struct ModelUtilityFn<F> {
    f: F,
    empty: f64,
}

/// Wraps a closure and an empty-coalition value into a [`ModelUtility`].
pub fn model_utility_fn<F: Fn(&[f64]) -> f64>(f: F, empty: f64) -> ModelUtilityFn<F> {
    ModelUtilityFn { f, empty }
}

impl<F: Fn(&[f64]) -> f64> ModelUtility for ModelUtilityFn<F> {
    fn of_model(&self, weights: &[f64]) -> f64 {
        (self.f)(weights)
    }

    fn of_empty(&self) -> f64 {
        self.empty
    }
}

/// A [`CoalitionUtility`] from a closure over coalition bitmasks.
pub struct UtilityFn<F> {
    n: usize,
    f: F,
}

/// Wraps `f(coalition) -> f64` as a [`CoalitionUtility`] over `n` players.
pub fn utility_fn<F: Fn(Coalition) -> f64>(n: usize, f: F) -> UtilityFn<F> {
    UtilityFn { n, f }
}

impl<F: Fn(Coalition) -> f64> CoalitionUtility for UtilityFn<F> {
    fn num_players(&self) -> usize {
        self.n
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        (self.f)(coalition)
    }
}

/// Number of lock stripes in [`CachedUtility`]. A power of two so the
/// stripe index is the top bits of the mixed coalition mask.
const CACHE_STRIPES: usize = 16;
const _: () = assert!(CACHE_STRIPES.is_power_of_two());

/// Memoizing wrapper counting unique evaluations — both a performance
/// device (coalition retraining is expensive) and the measurement hook
/// for Table I's "number of models trained".
///
/// The cache is **lock-striped**: coalitions hash (splitmix64-style
/// finalizer over the mask) onto one of `CACHE_STRIPES` (16) independent
/// `Mutex<HashMap>` shards, so the parallel estimators — which evaluate
/// many different coalitions at once on `numeric::par` — no longer
/// serialize on a single mutex for every lookup and insert. Each lock is
/// held only for the map lookup/insert, never across an inner
/// evaluation, so concurrent misses of *different* coalitions still
/// evaluate in parallel (a concurrent miss of the same coalition may
/// evaluate twice; both results are identical, and the enumeration-style
/// callers visit each coalition exactly once anyway). Striping is purely
/// a storage layout: `evaluate` returns the inner utility's value
/// verbatim, so the determinism contract of the estimators is untouched.
pub struct CachedUtility<'a, U: ?Sized> {
    inner: &'a U,
    stripes: Vec<Mutex<HashMap<Coalition, f64>>>,
    /// Lookups answered from the cache.
    hits: AtomicUsize,
    /// Lookups that fell through to the inner utility.
    misses: AtomicUsize,
}

/// Hit/miss counters of a [`CachedUtility`], for auditing the streaming
/// evaluation path in benches and diagnostics.
///
/// Observability only: the counters are **not** schedule-invariant in
/// general (two threads missing the same coalition concurrently both
/// count a miss), so they must never feed a consensus-visible value.
/// Through [`CoalitionUtility::evaluate_many`] the distinct uncached
/// coalitions are evaluated exactly once each, so there the counts are
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Evaluations answered from the cache.
    pub hits: usize,
    /// Evaluations that ran the inner utility.
    pub misses: usize,
}

/// Stripe index for a coalition mask: a 64-bit finalizer (splitmix64's
/// mixing constant) spreads nearby masks across stripes.
fn stripe_of(coalition: Coalition) -> usize {
    let mixed = coalition.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // Take the top bits so the index follows CACHE_STRIPES if retuned.
    (mixed >> (64 - CACHE_STRIPES.trailing_zeros())) as usize
}

impl<'a, U: CoalitionUtility + ?Sized> CachedUtility<'a, U> {
    /// Wraps a utility.
    pub fn new(inner: &'a U) -> Self {
        Self {
            inner,
            stripes: (0..CACHE_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Number of *unique* coalitions evaluated so far.
    pub fn unique_evaluations(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.lock().expect("utility cache poisoned").len())
            .sum()
    }

    /// Hit/miss counters accumulated so far (observability only — see
    /// [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// The locked stripe `coalition` lives in.
    fn stripe(&self, coalition: Coalition) -> MutexGuard<'_, HashMap<Coalition, f64>> {
        let stripe = &self.stripes[stripe_of(coalition)];
        stripe.lock().expect("utility cache poisoned")
    }
}

impl<U: CoalitionUtility + Sync + ?Sized> CoalitionUtility for CachedUtility<'_, U> {
    fn num_players(&self) -> usize {
        self.inner.num_players()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        if let Some(&v) = self.stripe(coalition).get(&coalition) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return v;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let v = self.inner.evaluate(coalition);
        self.stripe(coalition).insert(coalition, v);
        v
    }

    /// Values the batch from the cache, after evaluating the distinct
    /// coalitions it lacks through the inner game's batch call, in
    /// member-trie pre-order runs over [`numeric::par`]
    /// (`evaluate_in_runs`). The counters are deterministic here: one miss
    /// per distinct uncached coalition, a hit for every other slot.
    fn evaluate_many(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let mut todo: Vec<Coalition> = coalitions.to_vec();
        todo.sort_unstable_by_key(|c| c.0.reverse_bits());
        todo.dedup();
        todo.retain(|c| !self.stripe(*c).contains_key(c));
        self.misses.fetch_add(todo.len(), Ordering::Relaxed);
        self.hits
            .fetch_add(coalitions.len() - todo.len(), Ordering::Relaxed);
        for (&coalition, v) in todo.iter().zip(evaluate_in_runs(self.inner, &todo)) {
            self.stripe(coalition).insert(coalition, v);
        }
        coalitions
            .iter()
            .map(|&coalition| {
                let cached = self.stripe(coalition).get(&coalition).copied();
                cached.unwrap_or_else(|| self.evaluate(coalition))
            })
            .collect()
    }

    fn eval_flops(&self) -> usize {
        self.inner.eval_flops()
    }
}

/// A game restricted to a subset of its players — the survivor-side
/// counterpart of a dropout round.
///
/// Player `k` of the restricted game is player `players[k]` of the inner
/// game; coalitions of the restricted game therefore never include a
/// player outside the subset (a dropped owner contributes to no
/// coalition, so its Shapley value in the round is exactly zero by
/// construction). The restriction is a pure index mapping: `evaluate` is
/// a pure function of the restricted coalition mask whenever the inner
/// game's is, so every estimator built on [`numeric::par`] keeps its
/// bit-identical-across-thread-counts contract through the restriction.
pub struct RestrictedGame<'a, U: ?Sized> {
    inner: &'a U,
    players: Vec<usize>,
}

impl<'a, U: CoalitionUtility + ?Sized> RestrictedGame<'a, U> {
    /// Restricts `inner` to `players` (inner-game positions, strictly
    /// ascending).
    ///
    /// # Panics
    ///
    /// Panics if `players` is empty, not strictly ascending, or names a
    /// player outside the inner game.
    pub fn new(inner: &'a U, players: Vec<usize>) -> Self {
        assert!(!players.is_empty(), "restriction to zero players");
        assert!(
            players.windows(2).all(|w| w[0] < w[1]),
            "players must be strictly ascending"
        );
        assert!(
            *players.last().expect("non-empty") < inner.num_players(),
            "player index out of range"
        );
        Self { inner, players }
    }

    /// The inner-game coalition of a restricted one.
    fn lift(&self, coalition: Coalition) -> Coalition {
        let mut inner = Coalition::EMPTY;
        for (k, &p) in self.players.iter().enumerate() {
            if coalition.contains(k) {
                inner = inner.with(p);
            }
        }
        inner
    }
}

impl<U: CoalitionUtility + ?Sized> CoalitionUtility for RestrictedGame<'_, U> {
    fn num_players(&self) -> usize {
        self.players.len()
    }

    fn evaluate(&self, coalition: Coalition) -> f64 {
        self.inner.evaluate(self.lift(coalition))
    }

    /// Forwards the lifted batch: `players` ascends, so a batch in
    /// member-trie pre-order still is one after the lift.
    fn evaluate_many(&self, coalitions: &[Coalition]) -> Vec<f64> {
        let lifted: Vec<Coalition> = coalitions.iter().map(|&c| self.lift(c)).collect();
        self.inner.evaluate_many(&lifted)
    }

    fn eval_flops(&self) -> usize {
        self.inner.eval_flops()
    }
}

#[cfg(test)]
pub(crate) mod games {
    //! Canonical cooperative games for tests.

    use super::*;
    use crate::coalition::Coalition;

    /// `u(S) = Σ_{i∈S} values[i]` — SV equals each player's value.
    pub struct AdditiveGame {
        /// Per-player values.
        pub values: Vec<f64>,
    }

    impl CoalitionUtility for AdditiveGame {
        fn num_players(&self) -> usize {
            self.values.len()
        }

        fn evaluate(&self, coalition: Coalition) -> f64 {
            coalition.members().map(|i| self.values[i]).sum()
        }
    }

    /// Glove game: players `0..left` hold left gloves, the rest right
    /// gloves; `u(S) = min(#left, #right)` pairs formed.
    pub struct GloveGame {
        /// Number of left-glove holders.
        pub left: usize,
        /// Total players.
        pub n: usize,
    }

    impl CoalitionUtility for GloveGame {
        fn num_players(&self) -> usize {
            self.n
        }

        fn evaluate(&self, coalition: Coalition) -> f64 {
            let lefts = coalition.members().filter(|&i| i < self.left).count();
            let rights = coalition.len() - lefts;
            lefts.min(rights) as f64
        }
    }

    /// Serialises the tests that set the process-wide thread cap.
    pub static THREAD_CAP: Mutex<()> = Mutex::new(());

    /// Logs every batch the wrapped game is handed; an `evaluate` call
    /// logs a batch of one.
    pub struct Recording<U> {
        inner: U,
        flops: usize,
        batches: Mutex<Vec<Vec<Coalition>>>,
    }

    impl<U: CoalitionUtility> Recording<U> {
        pub fn new(inner: U) -> Self {
            let flops = inner.eval_flops();
            Self::priced(inner, flops)
        }

        /// A game that states `flops` per evaluation.
        pub fn priced(inner: U, flops: usize) -> Self {
            let batches = Mutex::new(Vec::new());
            Self {
                inner,
                flops,
                batches,
            }
        }

        /// The batches logged since the last call, in arrival order.
        pub fn take(&self) -> Vec<Vec<Coalition>> {
            std::mem::take(&mut self.batches.lock().expect("log poisoned"))
        }
    }

    impl<U: CoalitionUtility> CoalitionUtility for Recording<U> {
        fn num_players(&self) -> usize {
            self.inner.num_players()
        }

        fn evaluate(&self, coalition: Coalition) -> f64 {
            self.evaluate_many(&[coalition])[0]
        }

        fn evaluate_many(&self, coalitions: &[Coalition]) -> Vec<f64> {
            let mut log = self.batches.lock().expect("log poisoned");
            log.push(coalitions.to_vec());
            drop(log);
            coalitions.iter().map(|&c| self.inner.evaluate(c)).collect()
        }

        fn eval_flops(&self) -> usize {
            self.flops
        }
    }

    /// Majority game: `u(S) = 1` iff `|S| > n/2`.
    pub struct MajorityGame {
        /// Total players.
        pub n: usize,
    }

    impl CoalitionUtility for MajorityGame {
        fn num_players(&self) -> usize {
            self.n
        }

        fn evaluate(&self, coalition: Coalition) -> f64 {
            f64::from(coalition.len() * 2 > self.n)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::games::AdditiveGame;
    use super::*;
    use crate::coalition::Coalition;
    use crate::estimator::{Exact, SvEstimator};

    #[test]
    fn utility_fn_adapts_closures() {
        let u = utility_fn(3, |c: Coalition| c.len() as f64);
        assert_eq!(u.num_players(), 3);
        assert_eq!(u.evaluate(Coalition::from_members(&[0, 2])), 2.0);
        assert_eq!(u.evaluate(Coalition::EMPTY), 0.0);
    }

    #[test]
    fn model_utility_fn_adapts() {
        let u = model_utility_fn(|w: &[f64]| w.iter().sum(), 0.1);
        assert_eq!(u.of_model(&[1.0, 2.0]), 3.0);
        assert_eq!(u.of_empty(), 0.1);
    }

    #[test]
    fn restricted_game_maps_indices() {
        let game = AdditiveGame {
            values: vec![1.0, 2.0, 4.0, 8.0],
        };
        let restricted = RestrictedGame::new(&game, vec![1, 3]);
        assert_eq!(restricted.num_players(), 2);
        // Restricted player 0 is inner player 1, restricted 1 is inner 3.
        assert_eq!(restricted.evaluate(Coalition::from_members(&[0])), 2.0);
        assert_eq!(restricted.evaluate(Coalition::from_members(&[1])), 8.0);
        assert_eq!(restricted.evaluate(Coalition::from_members(&[0, 1])), 10.0);
        assert_eq!(restricted.evaluate(Coalition::EMPTY), 0.0);
    }

    #[test]
    fn restricted_additive_game_has_subgame_shapley_values() {
        // Restricting an additive game is the subgame over the kept
        // players: exact SV of the restriction equals their values.
        let game = AdditiveGame {
            values: vec![3.0, -1.0, 5.0, 2.0, 7.0],
        };
        let restricted = RestrictedGame::new(&game, vec![0, 2, 4]);
        let sv = Exact.estimate(&restricted).values;
        for (got, want) in sv.iter().zip([3.0, 5.0, 7.0]) {
            assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn restricted_game_rejects_unsorted_players() {
        let game = AdditiveGame {
            values: vec![1.0, 2.0],
        };
        let _ = RestrictedGame::new(&game, vec![1, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn restricted_game_rejects_out_of_range_player() {
        let game = AdditiveGame {
            values: vec![1.0, 2.0],
        };
        let _ = RestrictedGame::new(&game, vec![0, 5]);
    }

    #[test]
    fn cache_counts_unique_evaluations() {
        let game = AdditiveGame {
            values: vec![1.0, 2.0],
        };
        let cached = CachedUtility::new(&game);
        let c = Coalition::from_members(&[0]);
        assert_eq!(cached.evaluate(c), 1.0);
        assert_eq!(cached.evaluate(c), 1.0);
        assert_eq!(cached.evaluate(Coalition::from_members(&[0, 1])), 3.0);
        assert_eq!(cached.unique_evaluations(), 2);
    }

    #[test]
    fn striped_cache_counts_across_all_stripes() {
        // A full 10-player powerset lands on many stripes; the unique
        // count must aggregate across all of them and the cached values
        // must stay correct per coalition.
        let game = AdditiveGame {
            values: (0..10).map(|i| i as f64).collect(),
        };
        let cached = CachedUtility::new(&game);
        for c in Coalition::powerset(10) {
            assert_eq!(cached.evaluate(c), game.evaluate(c));
        }
        assert_eq!(cached.unique_evaluations(), 1 << 10);
        // Re-evaluation hits the cache: count unchanged.
        for c in Coalition::powerset(10) {
            assert_eq!(cached.evaluate(c), game.evaluate(c));
        }
        assert_eq!(cached.unique_evaluations(), 1 << 10);
    }

    #[test]
    fn cache_stats_count_hits_and_misses() {
        let game = AdditiveGame {
            values: vec![1.0, 2.0, 4.0],
        };
        let cached = CachedUtility::new(&game);
        assert_eq!(cached.stats(), CacheStats::default());
        let c = Coalition::from_members(&[0, 2]);
        cached.evaluate(c);
        cached.evaluate(c);
        cached.evaluate(Coalition::from_members(&[1]));
        assert_eq!(cached.stats(), CacheStats { hits: 1, misses: 2 });
    }

    #[test]
    fn evaluate_many_evaluates_each_distinct_coalition_once() {
        let game = AdditiveGame {
            values: (0..8).map(|i| i as f64).collect(),
        };
        let cached = CachedUtility::new(&game);
        // Duplicates in the batch must not evaluate twice: one miss per
        // distinct coalition, a hit for every other slot.
        let mut batch: Vec<Coalition> = Coalition::powerset(8).collect();
        batch.extend(Coalition::powerset(8));
        let values = cached.evaluate_many(&batch);
        for (&c, v) in batch.iter().zip(&values) {
            assert_eq!(v.to_bits(), game.evaluate(c).to_bits());
        }
        assert_eq!(cached.unique_evaluations(), 1 << 8);
        assert_eq!(
            cached.stats(),
            CacheStats {
                hits: 1 << 8,
                misses: 1 << 8
            }
        );
        // Everything after the batch is a pure hit with the inner value.
        for c in Coalition::powerset(8) {
            assert_eq!(cached.evaluate(c), game.evaluate(c));
        }
        assert_eq!(
            cached.stats(),
            CacheStats {
                hits: 2 << 8,
                misses: 1 << 8
            }
        );
    }

    #[test]
    fn evaluate_many_batches_exactly_what_the_cache_lacks() {
        use super::games::{Recording, THREAD_CAP};
        let _cap = THREAD_CAP.lock().expect("thread-cap mutex poisoned");
        for cap in [1usize, 2, 3, 8] {
            par::set_max_threads(cap);
            let game = Recording::new(AdditiveGame {
                values: (0..13).map(|i| (i as f64).exp()).collect(),
            });
            let cached = CachedUtility::new(&game);
            let early = [Coalition(5), Coalition::EMPTY, Coalition::grand(13)];
            for c in early {
                cached.evaluate(c);
            }
            assert_eq!(game.take().len(), 3);

            // 2^13 coalitions, twice over and back to front: two full
            // batches at the least, the three cached ones left out.
            let mut batch: Vec<Coalition> = Coalition::powerset(13).collect();
            batch.extend(Coalition::powerset(13));
            batch.reverse();
            let values = cached.evaluate_many(&batch);
            let batches = game.take();
            assert!(batches.len() >= cap.max(2), "cap {cap}: {}", batches.len());
            assert!(batches.iter().all(|b| b.len() <= MAX_BATCH));
            for batch in &batches {
                assert!(batch.is_sorted_by_key(|c| c.0.reverse_bits()));
            }
            let mut asked: Vec<Coalition> = batches.concat();
            asked.sort_unstable();
            let wanted: Vec<Coalition> = Coalition::powerset(13)
                .filter(|c| !early.contains(c))
                .collect();
            assert_eq!(asked, wanted, "cap {cap}: every uncached coalition once");
            assert_eq!(cached.stats().misses, 1 << 13);
            for (&c, v) in batch.iter().zip(&values) {
                assert_eq!(v.to_bits(), game.evaluate(c).to_bits(), "cap {cap}");
            }
            game.take();

            // Nothing is missing any more: nothing is asked.
            assert_eq!(cached.evaluate_many(&batch), values);
            assert_eq!(game.take(), Vec::<Vec<Coalition>>::new());
            assert_eq!(cached.stats().misses, 1 << 13);

            // Fifteen new coalitions of twenty adds each are one inline
            // run whatever the cap; a lease's worth each, one run a thread.
            let wider = Recording::new(AdditiveGame {
                values: vec![1.0; 20],
            });
            let few: Vec<Coalition> = (1..=15).map(|i| Coalition(i << 14)).collect();
            CachedUtility::new(&wider).evaluate_many(&few);
            assert_eq!(wider.take().len(), cap.min(15));
            let wider = Recording::priced(
                AdditiveGame {
                    values: vec![1.0; 20],
                },
                20,
            );
            let cached = CachedUtility::new(&wider);
            cached.evaluate_many(&few);
            assert_eq!(wider.take().len(), 1);
        }
        par::set_max_threads(0);
    }
}
