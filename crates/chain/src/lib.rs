//! Blockchain substrate for transparent-fl.
//!
//! The paper (Sect. III) replaces federated learning's semi-trusted server
//! with a blockchain: data owners double as miners, a leader-selection
//! protocol periodically picks a proposer, and a *verification protocol*
//! has every other miner re-execute the proposed transactions, accepting
//! them only when the re-execution matches. This crate builds that whole
//! machine:
//!
//! * [`codec`] — deterministic byte encoding (hashing needs a canonical
//!   serialization).
//! * [`hash`] / [`merkle`] — SHA-256 digests and Merkle commitments over
//!   transaction sets.
//! * [`tx`] / [`block`] / [`store`] — transactions, blocks, and the
//!   append-only validated chain store.
//! * [`contract`] — the smart-contract trait: deterministic state
//!   machines with digestible state, executed identically by every miner.
//! * [`gas`] — execution metering: the engine charges every executed
//!   call against the optional block gas limit.
//! * [`light`] — header-only verification of transaction inclusion
//!   proofs.
//! * [`mempool`] — pending-transaction pool with per-sender nonce order,
//!   batched admission ([`mempool::Mempool::submit_batch`]), and sealed
//!   [`tx::TxBundle`] hand-off to the engine.
//! * [`consensus`] — leader schedule plus the propose → re-execute →
//!   vote → commit engine, including Byzantine miner behaviours. The
//!   commit pipeline executes once per replica on scratch state (fanned
//!   out on `numeric::par`, bit-identical for any thread count) and
//!   applies the proven outcome atomically.
//! * [`log`] / [`durability`] — an append-only segmented record log
//!   (CRC-framed, torn-tail recovering) and the durable chain store on
//!   top of it: periodic state snapshots, crash-point injection, and
//!   verified replay so a chain can be certified from cold bytes on
//!   disk.
//!
//! The engine is deliberately synchronous and deterministic: determinism
//! is not a simplification here but a *requirement* — verification by
//! re-execution only works if every honest miner computes bit-identical
//! results (see `fl-crypto`'s fixed-point ring for the same theme).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod codec;
pub mod consensus;
pub mod contract;
pub mod durability;
pub mod gas;
pub mod hash;
pub mod light;
pub mod log;
pub mod mempool;
pub mod merkle;
pub mod store;
pub mod tx;

pub use block::{Block, BlockHeader};
pub use consensus::engine::{ConsensusEngine, EngineConfig, MinerBehavior};
pub use contract::{ExecutionOutcome, SmartContract, TxContext};
pub use durability::{CrashPoint, DurabilityError, DurableStore, RecoveryReport};
pub use hash::Hash32;
pub use log::{LogConfig, LogError, SegmentedLog};
pub use mempool::{BatchAdmission, Mempool, MempoolError};
pub use tx::{BundleError, Transaction, TxBundle};
