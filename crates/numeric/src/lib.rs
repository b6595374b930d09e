//! Numeric foundations for the transparent-fl workspace.
//!
//! This crate provides the six numeric substrates the paper's system is
//! built on:
//!
//! * [`uint`] — fixed-width unsigned big integers with modular arithmetic,
//!   used by the Diffie–Hellman key agreement in `fl-crypto`; one owner's
//!   agreements run eight abreast on AVX-512 IFMA where the CPU has it.
//! * [`fixed`] — a fixed-point codec mapping `f64` model weights into the
//!   wrapping `u64` ring. Secure aggregation masks live in this ring, so
//!   mask cancellation is *exact* (bit-for-bit), which a floating-point
//!   encoding cannot guarantee.
//! * [`linalg`] — dense row-major matrices and vector kernels backing the
//!   logistic-regression trainer in `fl-ml`.
//! * [`math`] — `exp`, `ln` and `cos 2πu` in IEEE-exact operations only,
//!   scalar and as slice passes: the softmax and Box–Muller of `fl-ml`
//!   compute the same bits on every host instead of the host libm's.
//! * [`stats`] — the statistical helpers the evaluation needs (cosine
//!   similarity for Fig. 2, summaries for the reports).
//! * [`par`] — deterministic fork-join parallelism over index ranges; the
//!   execution layer behind the SV and secure-aggregation hot paths.
//!
//! [`isa`] picks, per call, which instantiation of a lane-compiled
//! kernel runs (`linalg`'s GEMM panel, `math`'s slice passes,
//! `shapley`'s coalition walk): the baseline one or the same source
//! compiled with AVX or with AVX-512F, the widest the CPU has.
//!
//! Everything here is deterministic and dependency-free by design: the
//! blockchain's verification-by-re-execution protocol (paper Sect. III)
//! only works if every miner computes identical results.

// `deny` instead of `forbid`: calling a kernel's AVX or AVX-512F
// instantiation is one `unsafe` block, in `isa`, reached only after
// runtime feature detection; entering `uint`'s AVX-512 IFMA lane ladder
// is the other, behind a cached check of `avx512f` + `avx512ifma`. They
// carry the crate's two `#[allow(unsafe_code)]`s, each with its safety
// argument inline. `avx512f` implies
// `fma` in rustc, so FMA is kept out by the source and the compiler, not
// by the feature set: `isa`'s docs and `scripts/no_fma.sh`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod isa;
pub mod linalg;
pub mod math;
pub mod par;
pub mod stats;
pub mod uint;

pub use fixed::FixedCodec;
pub use linalg::{Matrix, Vector};
pub use uint::{U2048, U256};
