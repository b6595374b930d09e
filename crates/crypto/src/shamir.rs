//! Shamir secret sharing over a 256-bit prime field.
//!
//! The paper assumes every data owner participates in every round
//! (Sect. III), so mask recovery is never needed. The full Bonawitz
//! protocol, however, secret-shares each party's key material so the
//! cohort can unmask the aggregate when a party drops out mid-round. We
//! implement that extension here, beyond the paper's scope: [`crate::dropout`]
//! holds the escrow / reconstruct / strip protocol built on it.
//!
//! Shares are points `(x, P(x))` of a random degree `t-1` polynomial over
//! `GF(p)` with `P(0) = secret`; any `t` shares reconstruct via Lagrange
//! interpolation, fewer reveal nothing (information-theoretically).
//!
//! # Residency
//!
//! The field is the DH simulation group's prime field, and the scheme
//! runs on that group's resident [`MontgomeryCtx`]: [`Shamir::default`]
//! copies the context out of the memoised [`DhGroup::simulation_256`] —
//! the one place the prime is spelled — so building a scheme per
//! re-execution parses nothing and derives nothing.
//!
//! * [`Shamir::split`] keeps the coefficients and the Horner accumulator
//!   as **plain** residues and only the evaluation point `x̂` in
//!   Montgomery form: one step is one mixed product
//!   ([`MontgomeryCtx::mul_plain`], a single CIOS multiplication on the
//!   stack) and one `mod_add`. Nothing is converted in or out.
//! * [`Shamir::reconstruct`] forms the `t` Lagrange numerators and
//!   denominators in Montgomery form and inverts all denominators with
//!   **one** exponentiation ([`MontgomeryCtx::batch_inv`]); each share
//!   value then meets its coefficient in one mixed product.
//!
//! # Determinism
//!
//! Every output is the canonical residue in `[0, p)`, so shares, their
//! on-chain commitment hashes and reconstructed keys are bit-identical to
//! the plain shift-subtract ladder this replaced. That ladder is kept
//! verbatim as the oracle module [`plain`], and
//! `prop_reconstruct_any_subset` / `edge_rows_equal_plain_ladder` hold
//! both entry points to it — `split` share for share, `reconstruct` over
//! shuffled subsets — for full-width secrets at the sizes the chain uses.

use numeric::uint::MontgomeryCtx;
use numeric::U256;

use crate::chacha::ChaChaPrg;
use crate::dh::DhGroup;

/// A single share: the evaluation point `x` (nonzero) and value `y`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point, `1..=n`.
    pub x: u64,
    /// Polynomial value at `x`.
    pub y: U256,
}

/// Errors from sharing or reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShamirError {
    /// Threshold must satisfy `1 <= t <= n`.
    BadThreshold {
        /// Requested threshold.
        threshold: usize,
        /// Number of shares.
        shares: usize,
    },
    /// Reconstruction received fewer shares than the threshold.
    NotEnoughShares {
        /// Shares provided.
        got: usize,
        /// Threshold required.
        need: usize,
    },
    /// Two shares used the same evaluation point.
    DuplicatePoint(u64),
    /// A share claimed the evaluation point `x = 0` — that point *is*
    /// the secret, so honest dealers never emit it and reconstruction
    /// rejects it outright.
    ZeroPoint,
    /// The secret is not a field element (>= p).
    SecretOutOfField,
    /// Two evaluation points, distinct as integers, are the same field
    /// element, so a Lagrange denominator is zero. Out of reach over a
    /// field wider than 64 bits; the arm exists because one zero
    /// denominator would void the shared inverse of all of them.
    CoincidentPoints,
}

impl std::fmt::Display for ShamirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadThreshold { threshold, shares } => {
                write!(f, "threshold {threshold} invalid for {shares} shares")
            }
            Self::NotEnoughShares { got, need } => {
                write!(f, "need {need} shares to reconstruct, got {got}")
            }
            Self::DuplicatePoint(x) => write!(f, "duplicate share point {x}"),
            Self::ZeroPoint => write!(f, "share evaluation point x = 0 is forbidden"),
            Self::SecretOutOfField => write!(f, "secret exceeds the field modulus"),
            Self::CoincidentPoints => {
                write!(f, "two share points are the same field element")
            }
        }
    }
}

impl std::error::Error for ShamirError {}

/// Shamir scheme over `GF(p)` for a fixed prime `p`, resident in the
/// Montgomery engine for `p` (see the module docs).
#[derive(Debug, Clone)]
pub struct Shamir {
    ctx: MontgomeryCtx<4>,
}

impl Default for Shamir {
    fn default() -> Self {
        Self::new_simulation_field()
    }
}

impl Shamir {
    /// Field `GF(p)` of the 256-bit DH simulation group (secp256k1's
    /// field prime), on a copy of that group's memoised context.
    pub fn new_simulation_field() -> Self {
        Self {
            ctx: *DhGroup::simulation_256().ctx(),
        }
    }

    /// The field prime.
    fn p(&self) -> &U256 {
        self.ctx.modulus()
    }

    /// Splits `secret` into `n` shares with reconstruction threshold `t`.
    ///
    /// Coefficients are drawn from `prg`, so sharing is deterministic per
    /// seed — a requirement for the re-execution verification story.
    pub fn split(
        &self,
        secret: &U256,
        threshold: usize,
        n: usize,
        prg: &mut ChaChaPrg,
    ) -> Result<Vec<Share>, ShamirError> {
        if threshold == 0 || threshold > n {
            return Err(ShamirError::BadThreshold {
                threshold,
                shares: n,
            });
        }
        if secret >= self.p() {
            return Err(ShamirError::SecretOutOfField);
        }
        // coefficients[0] = secret, rest uniform in the field.
        let mut coeffs = Vec::with_capacity(threshold);
        coeffs.push(*secret);
        for _ in 1..threshold {
            coeffs.push(self.random_element(prg));
        }
        let shares = (1..=n as u64)
            .map(|x| Share {
                x,
                y: self.eval_poly(&coeffs, x),
            })
            .collect();
        Ok(shares)
    }

    /// Reconstructs the secret from at least `threshold` shares via
    /// Lagrange interpolation at zero.
    pub fn reconstruct(&self, shares: &[Share], threshold: usize) -> Result<U256, ShamirError> {
        if shares.len() < threshold {
            return Err(ShamirError::NotEnoughShares {
                got: shares.len(),
                need: threshold,
            });
        }
        let used = &shares[..threshold];
        for (i, s) in used.iter().enumerate() {
            if s.x == 0 {
                return Err(ShamirError::ZeroPoint);
            }
            if used[..i].iter().any(|o| o.x == s.x) {
                return Err(ShamirError::DuplicatePoint(s.x));
            }
        }
        let ctx = &self.ctx;
        let xs: Vec<_> = used
            .iter()
            .map(|s| ctx.to_elem(&U256::from_u64(s.x)))
            .collect();
        // L_j(0) = Π_{k≠j} x_k / (x_k - x_j)
        let mut nums = Vec::with_capacity(threshold);
        let mut dens = Vec::with_capacity(threshold);
        for (j, xj) in xs.iter().enumerate() {
            let mut num = ctx.one_elem();
            let mut den = ctx.one_elem();
            for (k, xk) in xs.iter().enumerate() {
                if k == j {
                    continue;
                }
                num = ctx.mul(&num, xk);
                den = ctx.mul(&den, &ctx.sub(xk, xj));
            }
            nums.push(num);
            dens.push(den);
        }
        let inv_dens = ctx.batch_inv(&dens).ok_or(ShamirError::CoincidentPoints)?;
        let mut secret = U256::ZERO;
        for ((sj, num), inv_den) in used.iter().zip(&nums).zip(&inv_dens) {
            let lj = ctx.mul(num, inv_den);
            secret = secret.mod_add(&ctx.mul_plain(&sj.y, &lj), self.p());
        }
        Ok(secret)
    }

    /// Horner's rule in GF(p): the coefficients (each `< p`) and the
    /// accumulator stay plain, the point is resident.
    fn eval_poly(&self, coeffs: &[U256], x: u64) -> U256 {
        let x_hat = self.ctx.to_elem(&U256::from_u64(x));
        let mut acc = U256::ZERO;
        for c in coeffs.iter().rev() {
            acc = self.ctx.mul_plain(&acc, &x_hat).mod_add(c, self.p());
        }
        acc
    }

    fn random_element(&self, prg: &mut ChaChaPrg) -> U256 {
        loop {
            let mut bytes = [0u8; 32];
            prg.fill_bytes(&mut bytes);
            let candidate = U256::from_be_bytes(&bytes);
            if &candidate < self.p() {
                return candidate;
            }
        }
    }
}

/// The plain-`U256` scheme this module ran on before it moved into the
/// Montgomery context, bodies verbatim: every Horner step a heap
/// `widening_mul` through the bit-serial reduction, one Fermat modexp
/// per share.
///
/// Oracle duty only, the way [`numeric::uint::Uint::mod_pow_naive`] is
/// kept for the exponentiation ladder: this module's property tests pin
/// [`Shamir::split`] and [`Shamir::reconstruct`] to it, and the
/// `crypto_primitives` bench times it as the seed baseline. Nothing on a
/// production path calls it.
pub mod plain {
    use numeric::U256;

    use super::{ShamirError, Share};
    use crate::chacha::ChaChaPrg;

    /// [`Shamir::split`](super::Shamir::split) over field prime `p`.
    ///
    /// # Errors
    ///
    /// As [`Shamir::split`](super::Shamir::split).
    pub fn split(
        p: &U256,
        secret: &U256,
        threshold: usize,
        n: usize,
        prg: &mut ChaChaPrg,
    ) -> Result<Vec<Share>, ShamirError> {
        if threshold == 0 || threshold > n {
            return Err(ShamirError::BadThreshold {
                threshold,
                shares: n,
            });
        }
        if secret >= p {
            return Err(ShamirError::SecretOutOfField);
        }
        let mut coeffs = Vec::with_capacity(threshold);
        coeffs.push(*secret);
        for _ in 1..threshold {
            coeffs.push(random_element(p, prg));
        }
        let shares = (1..=n as u64)
            .map(|x| Share {
                x,
                y: eval_poly(p, &coeffs, x),
            })
            .collect();
        Ok(shares)
    }

    /// [`Shamir::reconstruct`](super::Shamir::reconstruct) over field
    /// prime `p`, from the first `threshold` shares.
    ///
    /// # Errors
    ///
    /// As [`Shamir::reconstruct`](super::Shamir::reconstruct).
    pub fn reconstruct(p: &U256, shares: &[Share], threshold: usize) -> Result<U256, ShamirError> {
        if shares.len() < threshold {
            return Err(ShamirError::NotEnoughShares {
                got: shares.len(),
                need: threshold,
            });
        }
        let used = &shares[..threshold];
        for (i, s) in used.iter().enumerate() {
            if s.x == 0 {
                return Err(ShamirError::ZeroPoint);
            }
            if used[..i].iter().any(|o| o.x == s.x) {
                return Err(ShamirError::DuplicatePoint(s.x));
            }
        }
        let mut secret = U256::ZERO;
        for (j, sj) in used.iter().enumerate() {
            // L_j(0) = Π_{k≠j} x_k / (x_k - x_j)
            let mut num = U256::ONE;
            let mut den = U256::ONE;
            let xj = U256::from_u64(sj.x).reduce(p);
            for (k, sk) in used.iter().enumerate() {
                if k == j {
                    continue;
                }
                let xk = U256::from_u64(sk.x).reduce(p);
                num = num.mod_mul(&xk, p);
                den = den.mod_mul(&xk.mod_sub(&xj, p), p);
            }
            let lj = num.mod_mul(
                &den.mod_inv_prime(p)
                    .expect("den nonzero for distinct points"),
                p,
            );
            secret = secret.mod_add(&sj.y.mod_mul(&lj, p), p);
        }
        Ok(secret)
    }

    /// `P(x)` for the coefficients `coeffs` (constant term first), by
    /// Horner's rule in `GF(p)`.
    pub fn eval_poly(p: &U256, coeffs: &[U256], x: u64) -> U256 {
        let xf = U256::from_u64(x).reduce(p);
        let mut acc = U256::ZERO;
        for c in coeffs.iter().rev() {
            acc = acc.mod_mul(&xf, p).mod_add(&c.reduce(p), p);
        }
        acc
    }

    fn random_element(p: &U256, prg: &mut ChaChaPrg) -> U256 {
        loop {
            let mut bytes = [0u8; 32];
            prg.fill_bytes(&mut bytes);
            let candidate = U256::from_be_bytes(&bytes);
            if &candidate < p {
                return candidate;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn prg(tag: u8) -> ChaChaPrg {
        ChaChaPrg::from_seed(&[tag; 32])
    }

    /// Both entry points against the oracle on one input: `split` share for
    /// share, `reconstruct` of `order`'s shares (the first `threshold` of
    /// them count) equal to the oracle's and to the secret.
    fn assert_equals_plain(
        secret: &U256,
        threshold: usize,
        n: usize,
        seed: &[u8; 32],
        order: &[usize],
    ) {
        let s = Shamir::default();
        let shares = s
            .split(secret, threshold, n, &mut ChaChaPrg::from_seed(seed))
            .unwrap();
        let oracle = plain::split(s.p(), secret, threshold, n, &mut ChaChaPrg::from_seed(seed));
        assert_eq!(shares, oracle.unwrap());
        let subset: Vec<Share> = order.iter().map(|&i| shares[i].clone()).collect();
        let got = s.reconstruct(&subset, threshold).unwrap();
        assert_eq!(got, plain::reconstruct(s.p(), &subset, threshold).unwrap());
        assert_eq!(&got, secret);
    }

    #[test]
    fn field_is_the_dh_groups() {
        assert_eq!(Shamir::default().p(), &DhGroup::simulation_256().p);
        assert_eq!(
            Shamir::new_simulation_field().p(),
            &DhGroup::simulation_256().p
        );
    }

    #[test]
    fn edge_rows_equal_plain_ladder() {
        let s = Shamir::default();
        let p_minus_1 = s.p().wrapping_sub(&U256::ONE);
        let all = |n: usize| (0..n).collect::<Vec<_>>();
        for secret in [U256::ZERO, U256::ONE, p_minus_1] {
            assert_equals_plain(&secret, 1, 1, &[1; 32], &[0]);
            assert_equals_plain(&secret, 1, 5, &[2; 32], &[3]);
            assert_equals_plain(&secret, 5, 5, &[3; 32], &all(5));
            assert_equals_plain(&secret, 17, 32, &[4; 32], &all(32));
            assert_equals_plain(&secret, 40, 40, &[5; 32], &all(40));
        }

        // Evaluation points far beyond n: a dealer only emits 1..=n, but
        // `reconstruct` takes whatever x a share claims.
        let coeffs = [p_minus_1, U256::MAX.shr(2), U256::from_u64(3), p_minus_1];
        let far = [u64::MAX, 1, u64::MAX - 1, 1 << 63, (1 << 32) + 1];
        let shares: Vec<Share> = far
            .iter()
            .map(|&x| Share {
                x,
                y: s.eval_poly(&coeffs, x),
            })
            .collect();
        for share in &shares {
            assert_eq!(share.y, plain::eval_poly(s.p(), &coeffs, share.x));
        }
        for t in [4, 5] {
            let got = s.reconstruct(&shares, t).unwrap();
            assert_eq!(got, plain::reconstruct(s.p(), &shares, t).unwrap());
            assert_eq!(got, p_minus_1);
        }

        // A share value a hostile dealer left unreduced (y ≥ p) goes
        // through the same residue as on the plain ladder.
        let mut hostile = shares.clone();
        hostile[0].y = U256::MAX;
        hostile[2].y = *s.p();
        assert_eq!(
            s.reconstruct(&hostile, 4).unwrap(),
            plain::reconstruct(s.p(), &hostile, 4).unwrap()
        );
    }

    #[test]
    fn bad_points_rejected_like_the_plain_ladder() {
        // Same error, decided by the same scan over the first `threshold`
        // shares before any field arithmetic: whichever of a zero and a
        // repeated point comes first wins, and points past the threshold
        // are not looked at.
        let s = Shamir::default();
        let share = |x: u64| Share {
            x,
            y: U256::from_u64(x ^ 0x5a),
        };
        for (xs, t, want) in [
            (vec![3, 0, 3], 3, Err(ShamirError::ZeroPoint)),
            (vec![3, 3, 0], 3, Err(ShamirError::DuplicatePoint(3))),
            (vec![0], 1, Err(ShamirError::ZeroPoint)),
            (
                vec![u64::MAX, 7, u64::MAX],
                3,
                Err(ShamirError::DuplicatePoint(u64::MAX)),
            ),
            (
                vec![1, 2],
                3,
                Err(ShamirError::NotEnoughShares { got: 2, need: 3 }),
            ),
            (
                vec![0, 0],
                3,
                Err(ShamirError::NotEnoughShares { got: 2, need: 3 }),
            ),
            (vec![5, 6, 6, 0], 2, Ok(())),
        ] {
            let shares: Vec<Share> = xs.iter().map(|&x| share(x)).collect();
            let got = s.reconstruct(&shares, t);
            assert_eq!(got, plain::reconstruct(s.p(), &shares, t), "{xs:?}");
            assert_eq!(got.map(|_| ()), want, "{xs:?}");
        }
    }

    #[test]
    fn coincident_points_are_an_error_not_a_panic() {
        // Only a field narrower than the points can get here: over GF(97)
        // the points 1 and 98 are distinct integers and one field element.
        let s = Shamir {
            ctx: MontgomeryCtx::new(&U256::from_u64(97)).unwrap(),
        };
        let share = |x: u64, y: u64| Share {
            x,
            y: U256::from_u64(y),
        };
        assert_eq!(
            s.reconstruct(&[share(1, 5), share(2, 6), share(98, 5)], 3),
            Err(ShamirError::CoincidentPoints)
        );
        // 97 itself is the zero element: x = 97 passes the integer check,
        // every numerator through it is zero, no denominator is.
        assert_eq!(
            s.reconstruct(&[share(97, 42), share(2, 6)], 2),
            Ok(U256::from_u64(42))
        );
    }

    #[test]
    fn split_and_reconstruct() {
        let s = Shamir::default();
        let secret = U256::from_u64(0xdead_beef);
        let shares = s.split(&secret, 3, 5, &mut prg(1)).unwrap();
        assert_eq!(shares.len(), 5);
        assert_eq!(s.reconstruct(&shares[..3], 3).unwrap(), secret);
        // Any 3-of-5 subset works.
        let subset = [shares[4].clone(), shares[1].clone(), shares[3].clone()];
        assert_eq!(s.reconstruct(&subset, 3).unwrap(), secret);
    }

    #[test]
    fn below_threshold_fails() {
        let s = Shamir::default();
        let shares = s.split(&U256::from_u64(7), 3, 5, &mut prg(1)).unwrap();
        assert_eq!(
            s.reconstruct(&shares[..2], 3).unwrap_err(),
            ShamirError::NotEnoughShares { got: 2, need: 3 }
        );
    }

    #[test]
    fn threshold_one_is_copy() {
        let s = Shamir::default();
        let secret = U256::from_u64(42);
        let shares = s.split(&secret, 1, 3, &mut prg(2)).unwrap();
        for share in &shares {
            assert_eq!(share.y, secret, "degree-0 polynomial is constant");
        }
    }

    #[test]
    fn full_threshold() {
        let s = Shamir::default();
        let secret = U256::from_u64(99);
        let shares = s.split(&secret, 5, 5, &mut prg(3)).unwrap();
        assert_eq!(s.reconstruct(&shares, 5).unwrap(), secret);
    }

    #[test]
    fn bad_threshold_rejected() {
        let s = Shamir::default();
        let secret = U256::from_u64(1);
        assert!(matches!(
            s.split(&secret, 0, 5, &mut prg(1)),
            Err(ShamirError::BadThreshold { .. })
        ));
        assert!(matches!(
            s.split(&secret, 6, 5, &mut prg(1)),
            Err(ShamirError::BadThreshold { .. })
        ));
    }

    #[test]
    fn secret_out_of_field_rejected() {
        let s = Shamir::default();
        assert_eq!(
            s.split(&U256::MAX, 2, 3, &mut prg(1)).unwrap_err(),
            ShamirError::SecretOutOfField
        );
    }

    #[test]
    fn duplicate_points_rejected() {
        let s = Shamir::default();
        let shares = s.split(&U256::from_u64(5), 2, 3, &mut prg(1)).unwrap();
        let dup = [shares[0].clone(), shares[0].clone()];
        assert_eq!(
            s.reconstruct(&dup, 2).unwrap_err(),
            ShamirError::DuplicatePoint(shares[0].x)
        );
    }

    #[test]
    fn zero_evaluation_point_rejected() {
        // x = 0 would make the "share" the secret itself; a forged share
        // claiming it must be rejected before interpolation.
        let s = Shamir::default();
        let mut shares = s.split(&U256::from_u64(77), 2, 3, &mut prg(4)).unwrap();
        shares[0].x = 0;
        assert_eq!(
            s.reconstruct(&shares[..2], 2).unwrap_err(),
            ShamirError::ZeroPoint
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Shamir::default();
        let secret = U256::from_u64(1234);
        let a = s.split(&secret, 3, 5, &mut prg(7)).unwrap();
        let b = s.split(&secret, 3, 5, &mut prg(7)).unwrap();
        assert_eq!(a, b);
        let c = s.split(&secret, 3, 5, &mut prg(8)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn wrong_subset_of_lower_degree_gives_wrong_secret() {
        // Using threshold-1 shares as if threshold were lower must not
        // accidentally yield the secret (sanity, not security proof).
        let s = Shamir::default();
        let secret = U256::from_u64(31337);
        let shares = s.split(&secret, 3, 5, &mut prg(9)).unwrap();
        let wrong = s.reconstruct(&shares[..2], 2).unwrap();
        assert_ne!(wrong, secret);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_reconstruct_any_subset(
            secret in proptest::collection::vec(any::<u64>(), 4),
            seed in any::<u8>(),
            t in 1usize..=24,
            extra in 0usize..=16,
            keys in proptest::collection::vec(any::<u64>(), 40),
            spare in 0usize..=16,
        ) {
            // A full-width secret in [0, p), the sizes the chain uses
            // (stream_churn escrows 17-of-32), and an arbitrary subset in
            // arbitrary order: the shares sorted by a random key, the first
            // t..=n of them handed over.
            let n = t + extra;
            let mut limbs = [0u64; 4];
            limbs.copy_from_slice(&secret);
            let secret = U256::from_limbs(limbs).reduce(Shamir::default().p());
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&i| keys[i]);
            order.truncate((t + spare).min(n));
            assert_equals_plain(&secret, t, n, &[seed; 32], &order);
        }
    }
}
