//! Transactions: a sender, an anti-replay nonce, and a contract call —
//! plus [`TxBundle`], the pre-validated batch the consensus engine
//! commits.

use std::collections::BTreeMap;

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::hash::Hash32;
use crate::merkle::MerkleTree;

/// Account identifier (data owners and miners share the id space; the
/// paper lets any data owner act as a miner).
pub type AccountId = u32;

/// A transaction carrying a contract call of type `C`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction<C> {
    /// Originating account.
    pub sender: AccountId,
    /// Per-sender sequence number; the mempool enforces ordering and the
    /// contract layer can use it for replay protection.
    pub nonce: u64,
    /// The contract call payload.
    pub call: C,
}

impl<C: Encode> Transaction<C> {
    /// Creates a transaction.
    pub fn new(sender: AccountId, nonce: u64, call: C) -> Self {
        Self {
            sender,
            nonce,
            call,
        }
    }

    /// Canonical digest of the transaction.
    pub fn digest(&self) -> Hash32 {
        Hash32::of("transparent-fl/tx", self)
    }
}

impl<C: Encode> Encode for Transaction<C> {
    fn encode_to(&self, out: &mut Vec<u8>) {
        self.sender.encode_to(out);
        self.nonce.encode_to(out);
        self.call.encode_to(out);
    }
}

impl<C: Decode> Decode for Transaction<C> {
    fn decode_from(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Self {
            sender: AccountId::decode_from(r)?,
            nonce: u64::decode_from(r)?,
            call: C::decode_from(r)?,
        })
    }
}

/// Why a batch of transactions failed to seal into a [`TxBundle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// A sender's nonces are not consecutive in block order.
    NonContiguousNonces {
        /// The offending sender.
        sender: AccountId,
        /// Nonce expected from the sender's previous transaction in the
        /// batch.
        expected: u64,
        /// Nonce found.
        got: u64,
        /// Index of the offending transaction within the batch.
        tx_index: usize,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonContiguousNonces {
                sender,
                expected,
                got,
                tx_index,
            } => write!(
                f,
                "tx {tx_index}: sender {sender} jumps from expected nonce {expected} to {got}"
            ),
        }
    }
}

impl std::error::Error for BundleError {}

/// An ordered, admission-checked batch of transactions plus its Merkle
/// transaction root, computed exactly once.
///
/// A bundle is the unit the batched pipeline hands around: the mempool
/// seals drained transactions into one ([`crate::mempool::Mempool::drain_bundle`]),
/// and [`crate::consensus::engine::ConsensusEngine::commit_bundle`]
/// commits it without re-running per-transaction admission checks or
/// rebuilding the Merkle tree per miner replica. Intra-batch invariant:
/// each sender's nonces are consecutive in block order (the mempool
/// additionally anchors the first nonce against its per-sender counter).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxBundle<C> {
    txs: Vec<Transaction<C>>,
    tx_root: Hash32,
}

impl<C: Encode> TxBundle<C> {
    /// Seals a batch, checking per-sender nonce contiguity in one pass
    /// and committing to the transaction Merkle root.
    pub fn seal(txs: Vec<Transaction<C>>) -> Result<Self, BundleError> {
        Self::check_contiguous(&txs)?;
        Ok(Self::seal_unchecked(txs))
    }

    /// Seals a batch without the nonce-contiguity check (still computes
    /// the root). For transactions whose nonce order is already
    /// guaranteed (`Mempool::drain_bundle`) or is the caller's business
    /// (tests and benches that bypass a mempool).
    pub fn seal_unchecked(txs: Vec<Transaction<C>>) -> Self {
        let leaves: Vec<Hash32> = txs.iter().map(Transaction::digest).collect();
        let tx_root = MerkleTree::build(&leaves).root();
        Self { txs, tx_root }
    }
}

impl<C> TxBundle<C> {
    /// Checks the bundle invariant — each sender's nonces are consecutive
    /// in block order — without sealing (no clone, no Merkle build).
    pub fn check_contiguous(txs: &[Transaction<C>]) -> Result<(), BundleError> {
        let mut last: BTreeMap<AccountId, u64> = BTreeMap::new();
        for (tx_index, tx) in txs.iter().enumerate() {
            if let Some(&prev) = last.get(&tx.sender) {
                let expected = prev + 1;
                if tx.nonce != expected {
                    return Err(BundleError::NonContiguousNonces {
                        sender: tx.sender,
                        expected,
                        got: tx.nonce,
                        tx_index,
                    });
                }
            }
            last.insert(tx.sender, tx.nonce);
        }
        Ok(())
    }

    /// The transactions, in block order.
    pub fn txs(&self) -> &[Transaction<C>] {
        &self.txs
    }

    /// Merkle root over the transaction digests, computed at seal time.
    pub fn tx_root(&self) -> Hash32 {
        self.tx_root
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.txs.len()
    }

    /// True when the bundle holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_changes_with_every_field() {
        let base = Transaction::new(1, 0, 7u64);
        assert_ne!(base.digest(), Transaction::new(2, 0, 7u64).digest());
        assert_ne!(base.digest(), Transaction::new(1, 1, 7u64).digest());
        assert_ne!(base.digest(), Transaction::new(1, 0, 8u64).digest());
    }

    #[test]
    fn digest_deterministic() {
        let a = Transaction::new(3, 9, vec![1u64, 2, 3]);
        let b = Transaction::new(3, 9, vec![1u64, 2, 3]);
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn encode_concatenates_fields() {
        let tx = Transaction::new(1u32, 2u64, 3u8);
        let enc = tx.encode();
        assert_eq!(enc.len(), 4 + 8 + 1);
        assert_eq!(enc[0], 1);
        assert_eq!(enc[4], 2);
        assert_eq!(enc[12], 3);
    }

    #[test]
    fn bundle_root_matches_block_root() {
        let txs = vec![Transaction::new(0, 0, 1u64), Transaction::new(1, 0, 2u64)];
        let bundle = TxBundle::seal(txs.clone()).unwrap();
        assert_eq!(bundle.tx_root(), crate::block::Block::tx_root_of(&txs));
        assert_eq!(bundle.len(), 2);
        assert!(!bundle.is_empty());
        assert_eq!(bundle.txs(), txs);
    }

    #[test]
    fn bundle_accepts_interleaved_contiguous_nonces() {
        let txs = vec![
            Transaction::new(0, 5, 1u64),
            Transaction::new(1, 0, 2u64),
            Transaction::new(0, 6, 3u64),
            Transaction::new(1, 1, 4u64),
        ];
        assert!(TxBundle::seal(txs).is_ok());
    }

    #[test]
    fn bundle_rejects_nonce_jump() {
        let txs = vec![
            Transaction::new(0, 0, 1u64),
            Transaction::new(0, 2, 2u64), // gap: expected 1
        ];
        assert_eq!(
            TxBundle::seal(txs).unwrap_err(),
            BundleError::NonContiguousNonces {
                sender: 0,
                expected: 1,
                got: 2,
                tx_index: 1,
            }
        );
    }

    #[test]
    fn transaction_decode_roundtrips() {
        let tx = Transaction::new(3, 9, vec![1u64, 2, 3]);
        assert_eq!(Transaction::<Vec<u64>>::decode(&tx.encode()), Ok(tx));
        // Truncated mid-call: rejected, not panicked.
        let enc = Transaction::new(3, 9, vec![1u64, 2, 3]).encode();
        assert!(Transaction::<Vec<u64>>::decode(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn empty_bundle_zero_root() {
        let bundle: TxBundle<u64> = TxBundle::seal(vec![]).unwrap();
        assert!(bundle.is_empty());
        assert_eq!(bundle.tx_root(), Hash32::ZERO);
    }
}
