//! Machine-learning substrate for transparent-fl.
//!
//! Everything the paper's Sect. V experiment needs:
//!
//! * [`rng`] — a tiny deterministic PRNG (xoshiro256**) plus Gaussian
//!   sampling; data generation must be reproducible from a single seed so
//!   that miners re-executing the evaluation agree bit-for-bit.
//! * [`dataset`] — an in-memory labelled dataset and the synthetic
//!   "optdigits-like" generator substituting for the UCI handwritten
//!   digits data (the substitution argument is in [`dataset`]'s docs).
//! * [`noise`] — the paper's data-quality degradation:
//!   `d_i = d_i + N(0, σ·i)` for owner `i`.
//! * [`split`] — train/test split and per-owner sharding, as row plans
//!   that compose.
//! * [`logreg`] — multinomial (softmax) logistic regression trained with
//!   full-batch gradient descent, the paper's local trainer.
//! * [`metrics`] — accuracy; test-set accuracy is the paper's utility
//!   function `u(·)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod logreg;
pub mod metrics;
pub mod noise;
pub mod rng;
pub mod split;

pub use dataset::{Dataset, DatasetView, SyntheticDigits};
pub use logreg::{Design, LogisticModel, TrainConfig};
pub use rng::Xoshiro256;
