//! Experiment harness for the paper's evaluation section.
//!
//! Every table and figure has a regeneration target:
//!
//! | Paper artefact | Module | CLI |
//! |---|---|---|
//! | Fig. 1 — ground-truth SV vs σ | [`experiments::fig1`] | `experiments fig1` |
//! | Fig. 2 — GroupSV/native cosine similarity | [`experiments::fig2`] | `experiments fig2` |
//! | Table I — GroupSV vs NativeSV runtime | [`experiments::table1`] | `experiments table1` |
//! | Ext B — adversarial participants (§VI-2) | [`experiments::ext_adversary`] | `experiments ext-adversary` |
//! | Ext C — privacy/resolution trade-off (§IV-B) | [`experiments::ext_privacy`] | `experiments ext-privacy` |
//! | Ext D — cumulative resolution across rounds (Alg. 1) | [`experiments::ext_rounds`] | `experiments ext-rounds` |
//!
//! Two scales are supported: `fast` (reduced instances/epochs, seconds to
//! minutes, same qualitative shape) and `paper` (the paper's 5620×64
//! dataset and n = 9 owners). Absolute runtimes differ from the paper's
//! Python/NumPy numbers by construction; the comparisons of interest are
//! *within-table shapes* (who wins, by what factor, where the curves
//! cross), which the harness asserts in its smoke tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fixtures;
pub mod report;

pub use experiments::Scale;
