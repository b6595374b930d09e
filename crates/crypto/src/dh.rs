//! Finite-field Diffie–Hellman key agreement.
//!
//! Paper Sect. IV-A1: every data owner generates a private key `a` and
//! broadcasts `g^a` to the blockchain; each pair of owners then derives
//! the shared key `g^ab` from which per-round masks are generated.
//!
//! Two named groups ship with the crate:
//!
//! * [`DhGroup::simulation_256`] — a 256-bit prime group (the secp256k1
//!   field prime with generator 5). Fast enough to run thousands of
//!   exchanges in tests. **Simulation-grade only.**
//! * [`DhGroup2048::modp_2048`] — RFC 3526 group 14, the real-world MODP
//!   group. Exercised by a slower test to show the protocol is agnostic
//!   to group width, exactly as the paper is agnostic to the blockchain.
//!
//! # Montgomery residency
//!
//! A group is a *resident engine*, not a pair of numbers: construction
//! builds the [`MontgomeryCtx`] for `p` once (Newton limb inversion + the
//! R² derivation), so every key agreement is allocation-free CIOS
//! arithmetic with fixed-window exponentiation. The two named
//! constructors memoize the fully-built group in a process-wide
//! `OnceLock`, making `DhGroup::simulation_256()` free after first use.
//!
//! Beside each memoized group sits a second process-wide lazy: the
//! generator's [`FixedBaseTable`], every power `g^(d·2^(8i))` in
//! Montgomery form at 256 bits (255 KiB, built by the first
//! [`DhGroupW::public_of`] in the process, ≈ 8 k products). Every public
//! key — an owner's keypair and the check of a key reconstructed in
//! dropout recovery, which every replica and auditor runs — is then at
//! most 31 Montgomery products and no squaring: a keypair reads
//! 1.5–1.8 µs against 10–14 µs on the ladder. Its window is derived from the width (2 bits in the
//! 2048-bit group, where 8 would need 16 MiB), never configured.
//!
//! # Batching
//!
//! One owner's agreements share an exponent — its private key — so
//! [`DhGroupW::shared_keys_batch`] hands its peers to
//! [`MontgomeryCtx::mod_pow_batch`] in chunks of
//! [`MontgomeryCtx::batch_lanes`]: eight peers a call where the 256-bit
//! group runs on the AVX-512 IFMA lane ladder (`numeric::uint`, "Lane
//! exponentiation"), one elsewhere. The chunks fan out on
//! [`numeric::par`]; slot `i` is a pure function of peer `i`, and the
//! lanes return the canonical residue the scalar ladder does, so the pair
//! keys are bit-identical for any thread count and on any CPU. What an
//! agreement costs a region is stated once, here:
//! [`DhGroupW::KEYPAIR_FLOPS`] for a scalar modexp (a keypair, a
//! recovery pair, an agreement without lanes) and
//! [`DhGroupW::agreement_flops`] for one peer of a batch.
//!
//! All fast paths are pinned against the retained naive square-and-
//! multiply oracle ([`numeric::uint::Uint::mod_pow_naive`]); windowing and
//! residency are speed choices, never numerical ones.

use std::sync::OnceLock;

use crate::chacha::ChaChaPrg;
use crate::hkdf;
use numeric::par;
use numeric::uint::{FixedBaseTable, MontgomeryCtx, Uint};
use numeric::{U2048, U256};

/// Largest supported group width in bytes (32 limbs = 2048 bits) — the
/// size of the stack buffer [`DhGroupW::generate_keypair`] samples into.
const MAX_GROUP_BYTES: usize = 256;

/// Errors from validating a Diffie–Hellman public key.
///
/// A public key must be a canonical group element in `[2, p-2]`:
/// anything `>= p` is a non-canonical encoding, and `{0, 1, p-1}` are the
/// degenerate elements whose shared secret is predictable (0, 1, or ±1)
/// regardless of the private key — accepting one would let a malicious
/// owner force a known pair mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhKeyError {
    /// The key is `>= p` — not a canonical group element encoding.
    OutOfRange,
    /// The key is 0, 1, or p−1 — a degenerate element with a predictable
    /// shared secret.
    Degenerate,
}

impl std::fmt::Display for DhKeyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfRange => write!(f, "public key is not a canonical group element (>= p)"),
            Self::Degenerate => {
                write!(f, "public key is a degenerate group element (0, 1, or p-1)")
            }
        }
    }
}

impl std::error::Error for DhKeyError {}

/// A multiplicative prime group `(p, g)` for Diffie–Hellman, generic over
/// limb width, with a resident Montgomery engine for `p` and the
/// generator's powers (the module docs, "Montgomery residency").
#[derive(Debug, Clone, Copy)]
pub struct DhGroupW<const LIMBS: usize> {
    /// Prime modulus.
    pub p: Uint<LIMBS>,
    /// Group generator.
    pub g: Uint<LIMBS>,
    /// Montgomery engine for `p`, built once at group construction.
    ctx: MontgomeryCtx<LIMBS>,
    /// The generator's powers, one table a process per named group,
    /// built by the first [`DhGroupW::public_of`].
    powers: &'static OnceLock<FixedBaseTable<LIMBS>>,
}

/// The 256-bit simulation group used throughout the workspace.
pub type DhGroup = DhGroupW<4>;
/// The 2048-bit MODP group (slow path).
pub type DhGroup2048 = DhGroupW<32>;

/// RFC 3526 group 14 modulus (2048-bit MODP).
const MODP_2048_HEX: &str = "\
FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

impl DhGroup {
    /// The 256-bit simulation group: secp256k1's field prime, generator 5.
    ///
    /// Correct-by-construction for protocol tests (`g^ab == g^ba` holds in
    /// any group); not intended to resist cryptanalysis. The fully-built
    /// group (Montgomery context included) is memoized process-wide, so
    /// calling this per round or per owner costs a copy, not a rebuild.
    pub fn simulation_256() -> Self {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        static POWERS: OnceLock<FixedBaseTable<4>> = OnceLock::new();
        *GROUP.get_or_init(|| {
            let p =
                U256::from_hex("FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F")
                    .expect("static prime parses");
            Self::new(p, U256::from_u64(5), &POWERS)
        })
    }
}

impl DhGroup2048 {
    /// RFC 3526 group 14 (2048-bit MODP, generator 2). Memoized like
    /// [`DhGroup::simulation_256`] — the 2048-bit R² derivation runs once
    /// per process.
    pub fn modp_2048() -> Self {
        static GROUP: OnceLock<DhGroup2048> = OnceLock::new();
        static POWERS: OnceLock<FixedBaseTable<32>> = OnceLock::new();
        *GROUP.get_or_init(|| {
            Self::new(
                U2048::from_hex(MODP_2048_HEX).expect("static prime parses"),
                U2048::from_u64(2),
                &POWERS,
            )
        })
    }
}

impl<const LIMBS: usize> DhGroupW<LIMBS> {
    /// What one scalar modexp — a recovery pair, or an agreement off the
    /// lane ladder — costs in the flop-equivalents
    /// [`par::items_per_lease`] takes: `64·LIMBS` squarings at `LIMBS²`
    /// limb products of ≈ 14 each, 57 344 (≈ 14 µs) in the 256-bit group,
    /// where a modexp reads 12–16 µs on a 2.1 GHz Xeon; 73 of them make
    /// up a lease. A keypair no longer runs this ladder: it costs
    /// [`DhGroupW::KEYGEN_FLOPS`].
    pub const KEYPAIR_FLOPS: usize = 896 * LIMBS * LIMBS * LIMBS;

    /// What one keypair costs a region: at most `64·LIMBS / WINDOW`
    /// products from the generator's [`FixedBaseTable`] at ≈ `14·LIMBS²`
    /// each, 7 168 (≈ 1.8 µs) in the 256-bit group, where a keypair —
    /// sampling included — reads 1.5–1.8 µs on the same Xeon. 585 of them
    /// make up a lease, so a region of 1 024 keys stays on its caller.
    pub const KEYGEN_FLOPS: usize =
        (64 * LIMBS / FixedBaseTable::<LIMBS>::WINDOW as usize) * 14 * LIMBS * LIMBS;

    /// What one peer of [`DhGroupW::shared_keys_batch`] costs: a lane of
    /// the IFMA ladder where it runs — ≈ 2.1 µs, measured at 7 lanes on
    /// the same Xeon, 8 192 flop-equivalents — else a scalar modexp.
    pub fn agreement_flops(&self) -> usize {
        if self.ctx.batch_lanes() > 1 {
            8 << 10
        } else {
            Self::KEYPAIR_FLOPS
        }
    }

    /// Builds a group over the odd prime `p` with generator `g`,
    /// constructing the resident Montgomery engine once; `powers` is the
    /// named group's own lazy table of `g`'s powers.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero or even (Montgomery reduction is undefined)
    /// or wider than `MAX_GROUP_BYTES` (256 bytes = 2048 bits).
    fn new(
        p: Uint<LIMBS>,
        g: Uint<LIMBS>,
        powers: &'static OnceLock<FixedBaseTable<LIMBS>>,
    ) -> Self {
        assert!(
            LIMBS * 8 <= MAX_GROUP_BYTES,
            "group width {} exceeds the supported maximum of {MAX_GROUP_BYTES} bytes",
            LIMBS * 8
        );
        let ctx = MontgomeryCtx::new(&p).expect("DH modulus must be an odd prime");
        Self { p, g, ctx, powers }
    }

    /// The resident Montgomery engine for `p`.
    pub fn ctx(&self) -> &MontgomeryCtx<LIMBS> {
        &self.ctx
    }

    /// The public key of `private`: `g^private mod p`, from the
    /// generator's [`FixedBaseTable`] (built here on the process's first
    /// call).
    pub fn public_of(&self, private: &Uint<LIMBS>) -> Uint<LIMBS> {
        let powers = self
            .powers
            .get_or_init(|| FixedBaseTable::new(&self.ctx, &self.ctx.to_elem(&self.g)));
        self.ctx.retrieve(&powers.pow(private))
    }

    /// Samples a private key uniformly in `[2, p-2]` from `prg` and
    /// derives the public key `g^x mod p`.
    pub fn generate_keypair(&self, prg: &mut ChaChaPrg) -> DhKeyPairW<LIMBS> {
        // Rejection-sample a uniform value below p-3, then shift to [2, p-2].
        let upper = self
            .p
            .checked_sub(&Uint::from_u64(3))
            .expect("p is a large prime");
        // One stack buffer, refilled across rejection attempts. The PRG
        // byte stream (and hence every sampled key) is identical to the
        // seed-era per-attempt `vec![0u8; LIMBS * 8]` path.
        let mut buf = [0u8; MAX_GROUP_BYTES];
        let bytes = &mut buf[..LIMBS * 8];
        let private = loop {
            prg.fill_bytes(bytes);
            let candidate = Uint::<LIMBS>::from_be_bytes(bytes);
            if candidate < upper {
                break candidate.wrapping_add(&Uint::from_u64(2));
            }
        };
        let public = self.public_of(&private);
        DhKeyPairW { private, public }
    }

    /// Deterministic keypair from a 32-byte seed (used to make whole
    /// protocol runs reproducible from one experiment seed).
    pub fn keypair_from_seed(&self, seed: &[u8; 32]) -> DhKeyPairW<LIMBS> {
        let mut prg = ChaChaPrg::from_seed(seed);
        self.generate_keypair(&mut prg)
    }

    /// Checks that `key` is a canonical, non-degenerate group element in
    /// `[2, p-2]`. See [`DhKeyError`] for the rejection rules.
    pub fn validate_public_key(&self, key: &Uint<LIMBS>) -> Result<(), DhKeyError> {
        if key >= &self.p {
            return Err(DhKeyError::OutOfRange);
        }
        let p_minus_1 = self.p.wrapping_sub(&Uint::ONE);
        if key.is_zero() || key == &Uint::ONE || key == &p_minus_1 {
            return Err(DhKeyError::Degenerate);
        }
        Ok(())
    }

    /// The raw shared group element `other_pub^my_priv mod p` — peer key
    /// to Montgomery form, fixed-window pow, retrieve. Every caller
    /// validates `other_public` first.
    fn shared_element(&self, my_private: &Uint<LIMBS>, other_public: &Uint<LIMBS>) -> Uint<LIMBS> {
        let peer = self.ctx.to_elem(other_public);
        self.ctx.retrieve(&self.ctx.pow(&peer, my_private))
    }

    /// Derives a uniform 32-byte pair key from the shared group element
    /// via HKDF (group elements are not uniform bytes), rejecting
    /// degenerate or out-of-range public keys.
    pub fn shared_key(
        &self,
        my_private: &Uint<LIMBS>,
        other_public: &Uint<LIMBS>,
    ) -> Result<[u8; 32], DhKeyError> {
        self.validate_public_key(other_public)?;
        Ok(derive_pair_key(
            &self.shared_element(my_private, other_public),
        ))
    }

    /// Batched key agreement: one owner against `peer_publics`, in chunks
    /// of [`MontgomeryCtx::batch_lanes`] peers raised to `my_private`
    /// abreast, the chunks fanned out on [`numeric::par`] (the module
    /// docs, "Batching").
    ///
    /// Every peer key is validated before anything is computed; slot `i`
    /// of the result is the pair key against peer `i` — equal to
    /// [`DhGroupW::shared_key`] against it for any thread count and on
    /// any CPU.
    pub fn shared_keys_batch(
        &self,
        my_private: &Uint<LIMBS>,
        peer_publics: &[Uint<LIMBS>],
    ) -> Result<Vec<[u8; 32]>, DhKeyError> {
        for pk in peer_publics {
            self.validate_public_key(pk)?;
        }
        let lanes = self.ctx.batch_lanes();
        let chunks: Vec<&[Uint<LIMBS>]> = peer_publics.chunks(lanes).collect();
        let keys = par::par_map(
            &chunks,
            par::items_per_lease(lanes * self.agreement_flops()),
            |_, chunk| {
                let elements = self.ctx.mod_pow_batch(chunk, my_private);
                elements.iter().map(derive_pair_key).collect::<Vec<_>>()
            },
        );
        Ok(keys.concat())
    }

    /// Batched key agreement over explicit `(private, public)` pairs —
    /// the recovery-path shape, where each residual mask pairs a
    /// *different* reconstructed private key with a survivor's public
    /// key. Same validation and determinism contract as
    /// [`DhGroupW::shared_keys_batch`]; no two pairs need share an
    /// exponent, so each runs the scalar ladder.
    pub fn shared_keys_batch_pairs(
        &self,
        pairs: &[(Uint<LIMBS>, Uint<LIMBS>)],
    ) -> Result<Vec<[u8; 32]>, DhKeyError> {
        for (_, pk) in pairs {
            self.validate_public_key(pk)?;
        }
        Ok(par::par_map(
            pairs,
            par::items_per_lease(Self::KEYPAIR_FLOPS),
            |_, (private, public)| derive_pair_key(&self.shared_element(private, public)),
        ))
    }
}

/// HKDF expansion of a shared group element into a uniform 32-byte pair
/// key.
fn derive_pair_key<const LIMBS: usize>(element: &Uint<LIMBS>) -> [u8; 32] {
    hkdf::derive_key(b"transparent-fl/dh-pair-key", &element.to_be_bytes(), b"")
}

/// A Diffie–Hellman keypair, generic over limb width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhKeyPairW<const LIMBS: usize> {
    /// Secret exponent. Kept local to the data owner in the protocol.
    pub private: Uint<LIMBS>,
    /// Public group element `g^private mod p`, broadcast on-chain.
    pub public: Uint<LIMBS>,
}

/// Keypair over the default 256-bit simulation group.
pub type DhKeyPair = DhKeyPairW<4>;

#[cfg(test)]
mod tests {
    use super::*;

    fn prg(tag: u8) -> ChaChaPrg {
        ChaChaPrg::from_seed(&[tag; 32])
    }

    #[test]
    fn key_agreement_symmetric() {
        let group = DhGroup::simulation_256();
        let alice = group.generate_keypair(&mut prg(1));
        let bob = group.generate_keypair(&mut prg(2));
        let k_ab = group.shared_key(&alice.private, &bob.public).unwrap();
        let k_ba = group.shared_key(&bob.private, &alice.public).unwrap();
        assert_eq!(k_ab, k_ba, "g^ab must equal g^ba");
    }

    #[test]
    fn three_party_pairwise_keys_distinct() {
        let group = DhGroup::simulation_256();
        let a = group.generate_keypair(&mut prg(1));
        let b = group.generate_keypair(&mut prg(2));
        let c = group.generate_keypair(&mut prg(3));
        let k_ab = group.shared_key(&a.private, &b.public).unwrap();
        let k_ac = group.shared_key(&a.private, &c.public).unwrap();
        let k_bc = group.shared_key(&b.private, &c.public).unwrap();
        assert_ne!(k_ab, k_ac);
        assert_ne!(k_ab, k_bc);
        assert_ne!(k_ac, k_bc);
    }

    #[test]
    fn deterministic_from_seed() {
        let group = DhGroup::simulation_256();
        let k1 = group.keypair_from_seed(&[42u8; 32]);
        let k2 = group.keypair_from_seed(&[42u8; 32]);
        assert_eq!(k1, k2);
        let k3 = group.keypair_from_seed(&[43u8; 32]);
        assert_ne!(k1.public, k3.public);
    }

    #[test]
    fn private_key_in_range() {
        let group = DhGroup::simulation_256();
        for tag in 0..10u8 {
            let kp = group.generate_keypair(&mut prg(tag));
            assert!(kp.private >= U256::from_u64(2));
            assert!(kp.private < group.p);
        }
    }

    #[test]
    fn public_key_is_group_element() {
        let group = DhGroup::simulation_256();
        let kp = group.generate_keypair(&mut prg(9));
        assert!(kp.public < group.p);
        assert!(!kp.public.is_zero());
        group.validate_public_key(&kp.public).unwrap();
    }

    #[test]
    fn resident_engine_matches_naive_oracle() {
        // The Montgomery-resident agreement path must be bit-identical to
        // the retained naive square-and-multiply ladder.
        let group = DhGroup::simulation_256();
        let a = group.generate_keypair(&mut prg(4));
        let b = group.generate_keypair(&mut prg(5));
        let fast = group.shared_element(&a.private, &b.public);
        let naive = b.public.mod_pow_naive(&a.private, &group.p);
        assert_eq!(fast, naive);
        assert_eq!(a.public, group.g.mod_pow_naive(&a.private, &group.p));
    }

    #[test]
    fn public_keys_from_the_table_match_the_ladder_in_both_groups() {
        // 0, 1, 2, p − 2, all ones, every other byte zero, a sampled key.
        fn exponents<const L: usize>(group: &DhGroupW<L>, private: Uint<L>) -> Vec<Uint<L>> {
            let mut sparse = Uint::<L>::MAX.to_be_bytes();
            sparse.iter_mut().step_by(2).for_each(|b| *b = 0);
            vec![
                Uint::ZERO,
                Uint::ONE,
                Uint::from_u64(2),
                group.p.wrapping_sub(&Uint::from_u64(2)),
                Uint::MAX,
                Uint::from_be_bytes(&sparse),
                private,
            ]
        }
        let g256 = DhGroup::simulation_256();
        for x in exponents(&g256, g256.generate_keypair(&mut prg(3)).private) {
            assert_eq!(g256.public_of(&x), g256.g.mod_pow_naive(&x, &g256.p));
        }
        // The 2048-bit oracle pays a 2048-bit reduction per exponent
        // bit: the ladder stands in for it past 64 bits.
        let g2048 = DhGroup2048::modp_2048();
        for x in exponents(&g2048, g2048.generate_keypair(&mut prg(3)).private) {
            let want = if x.highest_bit() < Some(64) {
                g2048.g.mod_pow_naive(&x, &g2048.p)
            } else {
                g2048.ctx.mod_pow(&g2048.g, &x)
            };
            assert_eq!(g2048.public_of(&x), want);
        }
    }

    #[test]
    fn degenerate_and_out_of_range_keys_rejected() {
        let group = DhGroup::simulation_256();
        let kp = group.generate_keypair(&mut prg(1));
        let p_minus_1 = group.p.wrapping_sub(&U256::ONE);
        for (bad, want) in [
            (U256::ZERO, DhKeyError::Degenerate),
            (U256::ONE, DhKeyError::Degenerate),
            (p_minus_1, DhKeyError::Degenerate),
            (group.p, DhKeyError::OutOfRange),
            (U256::MAX, DhKeyError::OutOfRange),
        ] {
            assert_eq!(group.validate_public_key(&bad), Err(want), "{bad:?}");
            assert_eq!(group.shared_key(&kp.private, &bad), Err(want));
            assert_eq!(
                group.shared_keys_batch(&kp.private, &[kp.public, bad]),
                Err(want)
            );
        }
        // 2 and p-2 are unremarkable elements and must pass.
        group.validate_public_key(&U256::from_u64(2)).unwrap();
        group
            .validate_public_key(&group.p.wrapping_sub(&U256::from_u64(2)))
            .unwrap();
    }

    #[test]
    fn batch_agreement_matches_sequential() {
        let group = DhGroup::simulation_256();
        let me = group.generate_keypair(&mut prg(7));
        let peers: Vec<DhKeyPairW<4>> = (10..18u8)
            .map(|t| group.generate_keypair(&mut prg(t)))
            .collect();
        let peer_pubs: Vec<U256> = peers.iter().map(|kp| kp.public).collect();
        let batch = group.shared_keys_batch(&me.private, &peer_pubs).unwrap();
        for (kp, got) in peers.iter().zip(&batch) {
            assert_eq!(*got, group.shared_key(&me.private, &kp.public).unwrap());
            // And symmetric from the peer's side.
            assert_eq!(*got, group.shared_key(&kp.private, &me.public).unwrap());
        }
        // The pair-list variant agrees with the single-owner variant.
        let pairs: Vec<(U256, U256)> = peer_pubs.iter().map(|pk| (me.private, *pk)).collect();
        assert_eq!(group.shared_keys_batch_pairs(&pairs).unwrap(), batch);
    }

    #[test]
    fn batch_agreement_at_every_chunk_shape_matches_single_agreements() {
        // None, a lone peer, a part-filled, a full, a full and a lone, two
        // full, and two full and a lone chunk of the lane ladder.
        let group = DhGroup::simulation_256();
        let me = group.generate_keypair(&mut prg(70));
        let peers: Vec<DhKeyPair> = (0..17u8)
            .map(|t| group.generate_keypair(&mut prg(100 + t)))
            .collect();
        let pubs: Vec<U256> = peers.iter().map(|kp| kp.public).collect();
        for n in [0, 1, 7, 8, 9, 16, 17] {
            let batch = group.shared_keys_batch(&me.private, &pubs[..n]).unwrap();
            assert_eq!(batch.len(), n);
            for (kp, got) in peers.iter().zip(&batch) {
                assert_eq!(*got, group.shared_key(&me.private, &kp.public).unwrap());
                assert_eq!(*got, group.shared_key(&kp.private, &me.public).unwrap());
            }
        }
        // A bad key in the second chunk is reported, whatever comes
        // before it.
        let p_minus_1 = group.p.wrapping_sub(&U256::ONE);
        for (bad, want) in [
            (p_minus_1, DhKeyError::Degenerate),
            (group.p, DhKeyError::OutOfRange),
        ] {
            let mut with_bad = pubs.clone();
            with_bad[12] = bad;
            assert_eq!(group.shared_keys_batch(&me.private, &with_bad), Err(want));
        }
        assert!(group.agreement_flops() <= DhGroup::KEYPAIR_FLOPS);
    }

    #[test]
    fn shared_key_uniformized_by_hkdf() {
        // The HKDF output must differ from the raw element bytes.
        let group = DhGroup::simulation_256();
        let a = group.generate_keypair(&mut prg(1));
        let b = group.generate_keypair(&mut prg(2));
        let element = group.shared_element(&a.private, &b.public);
        let key = group.shared_key(&a.private, &b.public).unwrap();
        assert_ne!(key.to_vec(), element.to_be_bytes()[..32].to_vec());
    }

    #[test]
    fn modp_2048_agreement() {
        // One slow-path check that the wide group behaves identically.
        let group = DhGroup2048::modp_2048();
        let a = group.generate_keypair(&mut prg(1));
        let b = group.generate_keypair(&mut prg(2));
        assert_eq!(
            group.shared_key(&a.private, &b.public).unwrap(),
            group.shared_key(&b.private, &a.public).unwrap()
        );
    }
}
