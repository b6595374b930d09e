//! Simulation-grade cryptographic substrate for transparent-fl.
//!
//! Implements every primitive the paper's secure-aggregation layer
//! (Sect. IV-A1, following Bonawitz et al. CCS'17) relies on:
//!
//! * [`sha256`] — SHA-256, the hash used for transaction/block digests and
//!   as the compression core of HMAC/HKDF.
//! * [`hmac`] / [`hkdf`] — keyed hashing and key derivation, turning
//!   Diffie–Hellman shared secrets into per-round PRG seeds.
//! * [`chacha`] — a deterministic ChaCha20 keystream generator; the
//!   `PRNG(g^ab, r)` of the paper.
//! * [`dh`] — discrete-log Diffie–Hellman key agreement over named prime
//!   groups (a fast 256-bit simulation group and RFC 3526 MODP-2048).
//! * [`masking`] — pairwise mask derivation with the canonical add/sub
//!   orientation so that masks cancel in the aggregate.
//! * [`secure_agg`] — the data-owner side of secure aggregation: the
//!   advertised key directory, cached pair secrets, masked submission.
//!   The masks cancel in the plain ring sum the FL contract takes.
//! * [`shamir`] / [`dropout`] — Shamir secret sharing over a prime field
//!   and the dropout-recovery extension of the Bonawitz protocol built on
//!   it: key escrow, reconstruction, residual-mask stripping.
//!
//! # Security disclaimer
//!
//! This crate reproduces the *protocol logic* of the paper faithfully, but
//! it is a research simulation: arithmetic is not constant-time, the
//! default DH group is only 256 bits, and no side-channel hardening is
//! attempted. Do not reuse it as a production cryptography library.

// `deny` instead of `forbid`: two primitives have a backend written on
// `core::arch` intrinsics — the ChaCha20 block function (`chacha::simd`,
// explicit SIMD) and the SHA-256 compression (`sha256::x86`, the CPU's SHA
// extensions behind runtime detection). Those modules carry the crate's
// only `#[allow(unsafe_code)]`s, each with its safety argument inline and
// its output pinned word for word against the scalar path by tests.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha;
pub mod dh;
pub mod dropout;
pub mod hkdf;
pub mod hmac;
pub mod masking;
pub mod secure_agg;
pub mod sha256;
pub mod shamir;

pub use chacha::ChaChaPrg;
pub use dh::{DhGroup, DhKeyError, DhKeyPair};
pub use masking::PairwiseMasker;
pub use secure_agg::{key_epoch, PairSecretCache, SecureAggError};
pub use sha256::Sha256;
