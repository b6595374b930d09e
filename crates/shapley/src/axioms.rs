//! Machine-checkable Shapley axioms.
//!
//! The paper cites (Sect. II-A) that the Shapley value satisfies
//! *balance* (efficiency), *symmetry*, *zero elements* (null player) and
//! *additivity*. These helpers turn each axiom into a checkable predicate
//! over a concrete game, used by the property-based tests and by the
//! `axiom_audit` example to demonstrate the evaluation is well-founded.

use crate::coalition::Coalition;
use crate::utility::CoalitionUtility;

/// Tolerance used by the checks.
pub const TOLERANCE: f64 = 1e-9;

/// Efficiency / balance: `Σ v_i = u(N) − u(∅)`.
pub fn check_efficiency(utility: &impl CoalitionUtility, values: &[f64]) -> bool {
    let n = utility.num_players();
    assert_eq!(values.len(), n, "one value per player");
    let total: f64 = values.iter().sum();
    let grand = utility.evaluate(Coalition::grand(n));
    let empty = utility.evaluate(Coalition::EMPTY);
    (total - (grand - empty)).abs() <= TOLERANCE
}

/// Symmetry: players `i` and `j` with identical marginal contributions to
/// every coalition must receive equal values. Checks the premise
/// exhaustively over the powerset excluding both players.
pub fn symmetric_players(utility: &impl CoalitionUtility, i: usize, j: usize) -> bool {
    let n = utility.num_players();
    assert!(i < n && j < n && i != j, "need two distinct players");
    let others = Coalition::grand(n).without(i).without(j);
    others
        .subsets()
        .all(|s| (utility.evaluate(s.with(i)) - utility.evaluate(s.with(j))).abs() <= TOLERANCE)
}

/// Checks the symmetry axiom for a computed value vector.
pub fn check_symmetry(utility: &impl CoalitionUtility, values: &[f64]) -> bool {
    let n = utility.num_players();
    for i in 0..n {
        for j in (i + 1)..n {
            if symmetric_players(utility, i, j) && (values[i] - values[j]).abs() > TOLERANCE {
                return false;
            }
        }
    }
    true
}

/// Null player ("zero element"): a player whose marginal contribution is
/// zero for every coalition.
pub fn is_null_player(utility: &impl CoalitionUtility, i: usize) -> bool {
    let n = utility.num_players();
    assert!(i < n, "player out of range");
    let others = Coalition::grand(n).without(i);
    others
        .subsets()
        .all(|s| (utility.evaluate(s.with(i)) - utility.evaluate(s)).abs() <= TOLERANCE)
}

/// Checks the null-player axiom for a computed value vector.
pub fn check_null_player(utility: &impl CoalitionUtility, values: &[f64]) -> bool {
    (0..utility.num_players()).all(|i| !is_null_player(utility, i) || values[i].abs() <= TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{Exact, SvEstimator};
    use crate::utility::games::{AdditiveGame, GloveGame, MajorityGame};
    use crate::utility::utility_fn;

    #[test]
    fn exact_sv_passes_all_axioms_on_classic_games() {
        let glove = GloveGame { left: 2, n: 4 };
        let sv = Exact.estimate(&glove).values;
        assert!(check_efficiency(&glove, &sv));
        assert!(check_symmetry(&glove, &sv));
        assert!(check_null_player(&glove, &sv));

        let majority = MajorityGame { n: 5 };
        let sv = Exact.estimate(&majority).values;
        assert!(check_efficiency(&majority, &sv));
        assert!(check_symmetry(&majority, &sv));
    }

    #[test]
    fn null_player_detection() {
        let game = AdditiveGame {
            values: vec![1.0, 0.0, 2.0],
        };
        assert!(!is_null_player(&game, 0));
        assert!(is_null_player(&game, 1));
        assert!(!is_null_player(&game, 2));
    }

    #[test]
    fn symmetry_detection() {
        let game = AdditiveGame {
            values: vec![2.0, 2.0, 5.0],
        };
        assert!(symmetric_players(&game, 0, 1));
        assert!(!symmetric_players(&game, 0, 2));
    }

    #[test]
    fn violations_are_caught() {
        let game = AdditiveGame {
            values: vec![1.0, 1.0],
        };
        // A deliberately wrong allocation.
        assert!(!check_efficiency(&game, &[1.0, 0.0]));
        assert!(!check_symmetry(&game, &[2.0, 0.0]));
        let with_null = AdditiveGame {
            values: vec![1.0, 0.0],
        };
        assert!(!check_null_player(&with_null, &[0.5, 0.5]));
    }

    #[test]
    fn efficiency_respects_nonzero_empty_value() {
        // u(∅) = 10: SV must sum to u(N) − u(∅).
        let u = utility_fn(2, |c: Coalition| 10.0 + c.len() as f64);
        let sv = Exact.estimate(&u).values;
        assert!(check_efficiency(&u, &sv));
        let total: f64 = sv.iter().sum();
        assert!((total - 2.0).abs() < 1e-12);
    }
}
