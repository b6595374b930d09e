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

use numeric::U256;

use crate::chacha::ChaChaPrg;

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
        }
    }
}

impl std::error::Error for ShamirError {}

/// Shamir scheme over `GF(p)` for a fixed prime `p`.
#[derive(Debug, Clone)]
pub struct Shamir {
    p: U256,
}

impl Default for Shamir {
    fn default() -> Self {
        Self::new_simulation_field()
    }
}

impl Shamir {
    /// Field `GF(p)` with the same 256-bit prime the DH simulation group
    /// uses (secp256k1's field prime).
    pub fn new_simulation_field() -> Self {
        let p = U256::from_hex("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F")
            .expect("static prime parses");
        Self { p }
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
        if secret >= &self.p {
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
        let p = &self.p;
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

    fn eval_poly(&self, coeffs: &[U256], x: u64) -> U256 {
        // Horner's rule in GF(p).
        let xf = U256::from_u64(x).reduce(&self.p);
        let mut acc = U256::ZERO;
        for c in coeffs.iter().rev() {
            acc = acc
                .mod_mul(&xf, &self.p)
                .mod_add(&c.reduce(&self.p), &self.p);
        }
        acc
    }

    fn random_element(&self, prg: &mut ChaChaPrg) -> U256 {
        loop {
            let mut bytes = [0u8; 32];
            prg.fill_bytes(&mut bytes);
            let candidate = U256::from_be_bytes(&bytes);
            if candidate < self.p {
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
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_reconstruct_any_subset(
            secret in any::<u64>(),
            seed in any::<u8>(),
            t in 2usize..4,
            extra in 0usize..3,
        ) {
            let n = t + extra;
            let s = Shamir::default();
            let sec = U256::from_u64(secret);
            let mut p = ChaChaPrg::from_seed(&[seed; 32]);
            let shares = s.split(&sec, t, n, &mut p).unwrap();
            // Take the *last* t shares (arbitrary subset).
            let subset: Vec<Share> =
                shares.iter().rev().take(t).cloned().collect();
            prop_assert_eq!(s.reconstruct(&subset, t).unwrap(), sec);
        }
    }
}
