//! # transparent-fl: the paper's framework
//!
//! Reproduction of *"Transparent Contribution Evaluation for Secure
//! Federated Learning on Blockchain"* (Ma, Cao, Xiong — ICDE 2021).
//!
//! Cross-silo horizontal federated learning where the blockchain replaces
//! the semi-trusted server:
//!
//! * data owners train locally and submit **masked** updates (secure
//!   aggregation, `fl-crypto`);
//! * a smart contract ([`contract_fl::FlContract`]) aggregates the
//!   masked updates per group and evaluates contributions with
//!   **GroupSV** (`shapley::group`, the paper's Algorithm 1);
//! * every miner re-executes the contract and accepts only matching
//!   results (`fl-chain`'s consensus engine), making the evaluation
//!   *transparent and verifiable* while the updates stay private.
//!
//! Start with [`protocol::FlProtocol`] — it wires the whole system and
//! runs the paper's training-plus-evaluation workflow end to end:
//!
//! ```
//! use fedchain::config::FlConfig;
//! use fedchain::protocol::FlProtocol;
//!
//! let config = FlConfig::quick_demo();
//! let mut protocol = FlProtocol::new(config).expect("valid config");
//! let report = protocol.run().expect("honest majority commits");
//! assert_eq!(report.per_owner_sv.len(), 4);
//! ```
//!
//! # Crate map
//!
//! * [`config`], [`world`] — the off-chain setup stage and the data set,
//!   split, shards and quality noise a configuration generates;
//! * [`owner`], [`adversary`] — a data owner (local training, masking,
//!   key escrow) and the misbehaviours it can be given;
//! * [`contract_fl`] — the contract every miner re-executes: group means,
//!   Algorithm 1, dropout recovery, the state root;
//! * [`protocol`] — the driver, one file per stage: `protocol/mod.rs`
//!   holds [`FlProtocol`] and its run loop, `protocol/off_chain.rs` the
//!   owners' stage (train, mask, assemble calls, predict the next model)
//!   and `protocol/on_chain.rs` the miners' stage (commit, evaluate, the
//!   write-behind durable tail);
//! * [`audit`] — replaying a chain, live or from disk, and certifying it;
//! * [`rewards`], [`ground_truth`], [`privacy`] — reward splits, the
//!   retrain-based Shapley reference, and the privacy cost of `m`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod audit;
pub mod config;
pub mod contract_fl;
pub mod ground_truth;
pub mod owner;
pub mod privacy;
pub mod protocol;
pub mod rewards;
pub mod world;

pub use config::FlConfig;
pub use contract_fl::{FlCall, FlContract, FlError, FlParams};
pub use protocol::{FlProtocol, FlRunReport};
pub use world::World;
