//! Microbenchmarks for the cryptographic substrate — the per-round cost
//! drivers of the secure-aggregation layer.
//!
//! Every `seed` / `opt` group asserts the library equal to the reference
//! kept in this file before it samples: the DH groups against the naive
//! square-and-multiply ladder, `sha256` and `hkdf_derive` against the
//! scalar one-block-at-a-time rounds, `mask_expand` against per-word PRG
//! draws,
//! `shamir_escrow` (shares and reconstructed key) against the plain-`U256`
//! scheme over `Uint::mod_mul` / `mod_inv_prime`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fl_crypto::dh::{DhGroup, DhGroup2048, DhGroupW, DhKeyPairW};
use fl_crypto::masking::PairwiseMasker;
use fl_crypto::sha256::sha256;
use fl_crypto::shamir::{plain, Shamir};
use fl_crypto::ChaChaPrg;
use numeric::uint::Uint;
use numeric::U256;

/// The seed SHA-256, kept verbatim as the regression baseline: the scalar
/// FIPS 180-4 rounds one block at a time, the padding spelled out on a
/// copy of the message. `sha256/seed/<bytes>` vs `sha256/opt/<bytes>` is
/// this function against the library's dispatched compression.
fn seed_sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut state: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

fn seed_hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        key_block[..32].copy_from_slice(&seed_sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut inner = key_block.map(|b| b ^ 0x36).to_vec();
    inner.extend_from_slice(message);
    let mut outer = key_block.map(|b| b ^ 0x5c).to_vec();
    outer.extend_from_slice(&seed_sha256(&inner));
    seed_sha256(&outer)
}

/// The seed HKDF over [`seed_sha256`]: every HMAC message assembled as
/// `prev.clone() + info + counter` before it is hashed.
fn seed_hkdf_derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = seed_hmac_sha256(salt, ikm);
    let mut okm = Vec::with_capacity(len);
    let mut prev: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < len {
        let mut msg = prev.clone();
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = seed_hmac_sha256(&prk, &msg);
        prev = block.to_vec();
        okm.extend_from_slice(&block);
        counter += 1;
    }
    okm.truncate(len);
    okm
}

fn bench_sha256(c: &mut Criterion) {
    // A Merkle node's worth, 1 KiB, one dim-650 masked update (a
    // submission's payload: 650 ring elements), a 64 KiB stream.
    let mut group = c.benchmark_group("sha256");
    for size in [64usize, 1024, 5200, 65536] {
        let data: Vec<u8> = (0..size).map(|i| (i * 131 + 7) as u8).collect();
        assert_eq!(
            seed_sha256(&data),
            sha256(&data),
            "opt path must be bit-identical to the seed oracle before sampling"
        );
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("seed", size), &data, |b, data| {
            b.iter(|| seed_sha256(black_box(data)))
        });
        group.bench_with_input(BenchmarkId::new("opt", size), &data, |b, data| {
            b.iter(|| sha256(black_box(data)))
        });
    }
    group.finish();
}

fn bench_hkdf_derive(c: &mut Criterion) {
    // The mask-seed shape — one of the two derivations every pair pays per
    // round (the pair key's differs by an empty info): 24-byte salt,
    // 32-byte key, 16-byte info, one 32-byte block out; 8 compressions.
    let mut group = c.benchmark_group("hkdf_derive");
    let salt = b"transparent-fl/mask-seed";
    let pair_key = [9u8; 32];
    let info = *b"round/v1\0\0\0\0\0\0\0\x03";
    assert_eq!(
        seed_hkdf_derive(salt, &pair_key, &info, 32),
        fl_crypto::hkdf::derive(salt, &pair_key, &info, 32),
        "opt path must be bit-identical to the seed oracle before sampling"
    );
    group.bench_function(BenchmarkId::new("seed", "mask_seed"), |b| {
        b.iter(|| seed_hkdf_derive(salt, black_box(&pair_key), &info, 32))
    });
    group.bench_function(BenchmarkId::new("opt", "mask_seed"), |b| {
        b.iter(|| fl_crypto::hkdf::derive(salt, black_box(&pair_key), &info, 32))
    });
    group.finish();
}

fn bench_chacha_keystream(c: &mut Criterion) {
    let mut group = c.benchmark_group("chacha20");
    for words in [650usize, 65_000] {
        group.throughput(Throughput::Bytes(words as u64 * 8));
        group.bench_with_input(BenchmarkId::from_parameter(words), &words, |b, &words| {
            b.iter(|| {
                let mut prg = ChaChaPrg::from_seed(&[7u8; 32]);
                prg.gen_u64_vec(black_box(words))
            })
        });
    }
    group.finish();
}

fn bench_dh_exchange(c: &mut Criterion) {
    let group256 = DhGroup::simulation_256();
    let alice = group256.keypair_from_seed(&[1u8; 32]);
    let bob = group256.keypair_from_seed(&[2u8; 32]);
    c.bench_function("dh_shared_key_256", |b| {
        b.iter(|| {
            group256
                .shared_key(black_box(&alice.private), black_box(&bob.public))
                .unwrap()
        })
    });
}

/// The seed DH agreement path, kept verbatim as the regression baseline:
/// the retained naive square-and-multiply ladder
/// ([`Uint::mod_pow_naive`] — one binary-reduction `mod_mul` per exponent
/// bit, no Montgomery residency, no windowing) followed by the same HKDF
/// expansion the library applies. The `dh_agreement/seed/<bits>` vs
/// `dh_agreement/opt/<bits>` pairs in `BENCH_crypto_primitives.json` are
/// this function against `DhGroupW::shared_key`.
fn seed_shared_key<const LIMBS: usize>(
    p: &Uint<LIMBS>,
    my_private: &Uint<LIMBS>,
    other_public: &Uint<LIMBS>,
) -> [u8; 32] {
    let element = other_public.mod_pow_naive(my_private, p);
    let okm = fl_crypto::hkdf::derive(
        b"transparent-fl/dh-pair-key",
        &element.to_be_bytes(),
        b"",
        32,
    );
    okm.try_into().expect("HKDF returned 32 bytes")
}

/// The seed keypair-generation path: per-attempt byte sampling (the PRG
/// stream is shared with the optimized path, so the sampled private key
/// is identical) and the naive ladder for the public derivation.
fn seed_generate_keypair<const LIMBS: usize>(
    group: &DhGroupW<LIMBS>,
    prg: &mut ChaChaPrg,
) -> DhKeyPairW<LIMBS> {
    let private = seed_sample_private(group, prg);
    let public = group.g.mod_pow_naive(&private, &group.p);
    DhKeyPairW { private, public }
}

/// The seed's rejection sampling of a private key in `[2, p − 2]`.
fn seed_sample_private<const LIMBS: usize>(
    group: &DhGroupW<LIMBS>,
    prg: &mut ChaChaPrg,
) -> Uint<LIMBS> {
    let upper = group
        .p
        .checked_sub(&Uint::from_u64(3))
        .expect("p is a large prime");
    loop {
        let mut bytes = vec![0u8; LIMBS * 8];
        prg.fill_bytes(&mut bytes);
        let candidate = Uint::<LIMBS>::from_be_bytes(&bytes);
        if candidate < upper {
            break candidate.wrapping_add(&Uint::from_u64(2));
        }
    }
}

fn bench_dh_agreement(c: &mut Criterion) {
    let mut group = c.benchmark_group("dh_agreement");
    // Naive 2048-bit exponentiations cost ~10^2 ms each; the shim's
    // calibrated samples keep the group affordable at a smaller count.
    group.sample_size(10);

    let g256 = DhGroup::simulation_256();
    let a256 = g256.keypair_from_seed(&[1u8; 32]);
    let b256 = g256.keypair_from_seed(&[2u8; 32]);
    assert_eq!(
        seed_shared_key(&g256.p, &a256.private, &b256.public),
        g256.shared_key(&a256.private, &b256.public).unwrap(),
        "opt path must be bit-identical to the seed oracle before sampling"
    );
    group.bench_function(BenchmarkId::new("seed", 256), |b| {
        b.iter(|| seed_shared_key(&g256.p, black_box(&a256.private), black_box(&b256.public)))
    });
    group.bench_function(BenchmarkId::new("opt", 256), |b| {
        b.iter(|| {
            g256.shared_key(black_box(&a256.private), black_box(&b256.public))
                .unwrap()
        })
    });

    let g2048 = DhGroup2048::modp_2048();
    let a2048 = g2048.keypair_from_seed(&[3u8; 32]);
    let b2048 = g2048.keypair_from_seed(&[4u8; 32]);
    assert_eq!(
        seed_shared_key(&g2048.p, &a2048.private, &b2048.public),
        g2048.shared_key(&a2048.private, &b2048.public).unwrap(),
        "opt path must be bit-identical to the seed oracle before sampling"
    );
    group.bench_function(BenchmarkId::new("seed", 2048), |b| {
        b.iter(|| {
            seed_shared_key(
                &g2048.p,
                black_box(&a2048.private),
                black_box(&b2048.public),
            )
        })
    });
    group.bench_function(BenchmarkId::new("opt", 2048), |b| {
        b.iter(|| {
            g2048
                .shared_key(black_box(&a2048.private), black_box(&b2048.public))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_dh_keygen(c: &mut Criterion) {
    let mut group = c.benchmark_group("dh_keygen");
    group.sample_size(10);
    let g256 = DhGroup::simulation_256();
    assert_eq!(
        seed_generate_keypair(&g256, &mut ChaChaPrg::from_seed(&[9u8; 32])),
        g256.keypair_from_seed(&[9u8; 32]),
        "keygen must sample the identical keypair before sampling"
    );
    group.bench_function(BenchmarkId::new("seed", 256), |b| {
        b.iter(|| {
            let mut prg = ChaChaPrg::from_seed(&[9u8; 32]);
            seed_generate_keypair(black_box(&g256), &mut prg)
        })
    });
    // The same keypair with its public key from the scalar ladder on the
    // group's resident context (the library before the generator's table
    // of powers).
    let ladder = |seed: &[u8; 32]| {
        let private = seed_sample_private(&g256, &mut ChaChaPrg::from_seed(seed));
        DhKeyPairW {
            private,
            public: g256.ctx().mod_pow(&g256.g, &private),
        }
    };
    assert_eq!(
        ladder(&[9u8; 32]),
        g256.keypair_from_seed(&[9u8; 32]),
        "the ladder must derive the identical keypair before sampling"
    );
    group.bench_function(BenchmarkId::new("ladder", 256), |b| {
        b.iter(|| ladder(black_box(&[9u8; 32])))
    });
    group.bench_function(BenchmarkId::new("opt", 256), |b| {
        b.iter(|| g256.keypair_from_seed(black_box(&[9u8; 32])))
    });
    group.finish();
}

fn bench_dh_batch_setup(c: &mut Criterion) {
    // One owner's full per-round agreement fan-out: n pair keys against n
    // peer public keys — the n² setup cost driver at cohort scale.
    let mut group = c.benchmark_group("dh_batch_setup");
    group.sample_size(10);
    let g256 = DhGroup::simulation_256();
    let me = g256.keypair_from_seed(&[42u8; 32]);
    for n in [8usize, 32, 128] {
        let peers: Vec<U256> = (0..n)
            .map(|i| {
                let mut seed = [0u8; 32];
                seed[0] = i as u8;
                seed[1] = 1;
                g256.keypair_from_seed(&seed).public
            })
            .collect();
        let seed_keys: Vec<[u8; 32]> = peers
            .iter()
            .map(|pk| seed_shared_key(&g256.p, &me.private, pk))
            .collect();
        assert_eq!(
            seed_keys,
            g256.shared_keys_batch(&me.private, &peers).unwrap(),
            "batched agreements must be bit-identical to the seed oracle"
        );
        group.bench_function(BenchmarkId::new("seed", n), |b| {
            b.iter(|| {
                peers
                    .iter()
                    .map(|pk| seed_shared_key(&g256.p, black_box(&me.private), pk))
                    .collect::<Vec<_>>()
            })
        });
        group.bench_function(BenchmarkId::new("opt", n), |b| {
            b.iter(|| {
                g256.shared_keys_batch(black_box(&me.private), black_box(&peers))
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_mask_round(c: &mut Criterion) {
    // Masking one model update (dim = 650, the digits model) against 8
    // peers — one owner's per-round masking work in the paper's setting.
    let masker = PairwiseMasker::new([9u8; 32]);
    c.bench_function("mask_650dim_8peers", |b| {
        b.iter(|| {
            let mut update = vec![0u64; 650];
            for peer in 1..=8u32 {
                masker.apply(0, peer, black_box(3), &mut update);
            }
            update
        })
    });
}

/// The seed mask-expansion path, kept verbatim as the regression
/// baseline: HKDF seed derivation followed by `dim` per-`u64` PRG draws
/// (what `ChaChaPrg::gen_u64_vec` did before the whole-block fill). The
/// `mask_expand/seed/dim` vs `mask_expand/opt/dim` pairs in
/// `BENCH_sv_runtime.json` are this function against
/// `PairwiseMasker::mask_for_round`.
fn seed_mask_expansion(pair_key: &[u8; 32], round: u64, dim: usize) -> Vec<u64> {
    let mut info = [0u8; 16];
    info[..8].copy_from_slice(b"round/v1");
    info[8..].copy_from_slice(&round.to_be_bytes());
    let okm = fl_crypto::hkdf::derive(b"transparent-fl/mask-seed", pair_key, &info, 32);
    let mut seed = [0u8; 32];
    seed.copy_from_slice(&okm);
    let mut prg = ChaChaPrg::from_seed(&seed);
    (0..dim).map(|_| prg.next_u64()).collect()
}

fn bench_mask_expansion(c: &mut Criterion) {
    let pair_key = [9u8; 32];
    let masker = PairwiseMasker::new(pair_key);
    let mut group = c.benchmark_group("mask_expand");
    for dim in [1_000usize, 10_000] {
        group.throughput(Throughput::Bytes(dim as u64 * 8));
        group.bench_with_input(BenchmarkId::new("seed", dim), &dim, |b, &dim| {
            b.iter(|| seed_mask_expansion(black_box(&pair_key), 3, dim))
        });
        group.bench_with_input(BenchmarkId::new("opt", dim), &dim, |b, &dim| {
            b.iter(|| masker.mask_for_round(black_box(3), dim))
        });
    }
    group.finish();
}

fn bench_shamir_escrow(c: &mut Criterion) {
    // One owner's key escrow at the `stream_churn` shape — 32 shares,
    // majority threshold 17 — and one recovered key from the last 17 of
    // them (any 17 do; the last ones have the widest points).
    let (n, t) = (32usize, 17usize);
    let mut group = c.benchmark_group("shamir_escrow");
    let shamir = Shamir::default();
    let dh = DhGroup::simulation_256();
    let secret = dh.keypair_from_seed(&[5u8; 32]).private;
    let seed = [6u8; 32];

    let shares = shamir
        .split(&secret, t, n, &mut ChaChaPrg::from_seed(&seed))
        .unwrap();
    assert_eq!(
        plain::split(&dh.p, &secret, t, n, &mut ChaChaPrg::from_seed(&seed)).unwrap(),
        shares,
        "shares must be bit-identical to the seed oracle before sampling"
    );
    let pooled = &shares[n - t..];
    assert_eq!(plain::reconstruct(&dh.p, pooled, t).unwrap(), secret);
    assert_eq!(shamir.reconstruct(pooled, t).unwrap(), secret);

    let split_id = format!("split/{n}/{t}");
    group.bench_function(BenchmarkId::new("seed", &split_id), |b| {
        b.iter(|| {
            let mut prg = ChaChaPrg::from_seed(&seed);
            plain::split(&dh.p, black_box(&secret), t, n, &mut prg).unwrap()
        })
    });
    group.bench_function(BenchmarkId::new("opt", &split_id), |b| {
        b.iter(|| {
            let mut prg = ChaChaPrg::from_seed(&seed);
            shamir.split(black_box(&secret), t, n, &mut prg).unwrap()
        })
    });
    let reconstruct_id = format!("reconstruct/{t}");
    group.bench_function(BenchmarkId::new("seed", &reconstruct_id), |b| {
        b.iter(|| plain::reconstruct(&dh.p, black_box(pooled), t).unwrap())
    });
    group.bench_function(BenchmarkId::new("opt", &reconstruct_id), |b| {
        b.iter(|| shamir.reconstruct(black_box(pooled), t).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hkdf_derive,
    bench_chacha_keystream,
    bench_dh_exchange,
    bench_dh_agreement,
    bench_dh_keygen,
    bench_dh_batch_setup,
    bench_mask_round,
    bench_mask_expansion,
    bench_shamir_escrow
);
criterion_main!(benches);
