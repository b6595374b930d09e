//! Append-only validated chain store.
//!
//! Every miner keeps a full copy of the chain. Appending validates the
//! parent link, height continuity, and transaction-root consistency —
//! the structural half of the paper's truthfulness guarantee (the
//! semantic half is verification by re-execution in
//! [`crate::consensus::engine`]).

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::block::Block;
use crate::codec::Encode;
use crate::hash::Hash32;

/// Why (and where) a chain failed full verification.
///
/// [`ChainStore::verify_chain`] reports the *first* divergent block — an
/// auditor or recovering replica gets an actionable location, not a bare
/// `false`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainFault {
    /// Height of the first block that failed verification.
    pub height: u64,
    /// What failed at that height.
    pub kind: ChainFaultKind,
}

/// The specific check a block failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainFaultKind {
    /// The block's parent digest does not match its predecessor's header
    /// digest.
    ParentLink {
        /// Digest of the actual predecessor (or zero at genesis).
        expected: Hash32,
        /// Parent digest the block carries.
        got: Hash32,
    },
    /// The block's recorded height disagrees with its chain position.
    Height {
        /// The block's position in the chain.
        expected: u64,
        /// Height the header carries.
        got: u64,
    },
    /// The header's transaction root does not match the block body.
    TxRoot,
}

impl std::fmt::Display for ChainFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.kind {
            ChainFaultKind::ParentLink { expected, got } => write!(
                f,
                "block {}: parent link {got:?} does not match predecessor {expected:?}",
                self.height
            ),
            ChainFaultKind::Height { expected, got } => write!(
                f,
                "block {}: header height {got} at chain position {expected}",
                self.height
            ),
            ChainFaultKind::TxRoot => {
                write!(f, "block {}: transaction root mismatch", self.height)
            }
        }
    }
}

impl std::error::Error for ChainFault {}

/// Errors from appending to the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Parent digest does not match the current tip.
    ParentMismatch {
        /// Expected parent (current tip digest).
        expected: Hash32,
        /// Parent named by the block.
        got: Hash32,
    },
    /// Height is not `tip_height + 1`.
    HeightMismatch {
        /// Expected height.
        expected: u64,
        /// Height named by the block.
        got: u64,
    },
    /// Transaction root does not match the block body.
    TxRootMismatch,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParentMismatch { expected, got } => {
                write!(f, "parent mismatch: expected {expected:?}, got {got:?}")
            }
            Self::HeightMismatch { expected, got } => {
                write!(f, "height mismatch: expected {expected}, got {got}")
            }
            Self::TxRootMismatch => write!(f, "transaction root mismatch"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A thread-safe, append-only block store.
///
/// Cloning shares the underlying chain (all replicas of one *miner* see
/// the same store; different miners hold different stores). A committed
/// block is immutable, so stores of different miners — and the durable
/// tail of one — hold the same block behind one `Arc`.
#[derive(Debug, Clone, Default)]
pub struct ChainStore<C> {
    inner: Arc<RwLock<Vec<Arc<Block<C>>>>>,
}

impl<C: Encode + Clone> ChainStore<C> {
    /// An empty chain.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(RwLock::new(Vec::new())),
        }
    }

    /// Read access with poison recovery: a writer that panicked mid-call
    /// never committed a partial mutation (`append` pushes a fully
    /// validated block or nothing), so the poisoned data is intact and a
    /// long-lived replica's readers must not be wedged by one dead
    /// thread.
    fn read(&self) -> RwLockReadGuard<'_, Vec<Arc<Block<C>>>> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access with the same poison-recovery rationale as `read`.
    fn write(&self) -> RwLockWriteGuard<'_, Vec<Arc<Block<C>>>> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of blocks.
    pub fn height(&self) -> u64 {
        self.read().len() as u64
    }

    /// Digest of the tip header, or [`Hash32::ZERO`] for an empty chain.
    pub fn tip_digest(&self) -> Hash32 {
        self.read()
            .last()
            .map_or(Hash32::ZERO, |b| b.header.digest())
    }

    /// Clone of the block at `height` (0-based), if present.
    pub fn block_at(&self, height: u64) -> Option<Block<C>> {
        self.with_block(height, Block::clone)
    }

    /// The blocks from `height` to the tip, shared, not copied: what a
    /// store tailing this one has yet to append.
    pub fn blocks_from(&self, height: u64) -> Vec<Arc<Block<C>>> {
        self.read()
            .get(height as usize..)
            .map_or_else(Vec::new, <[_]>::to_vec)
    }

    /// Runs `f` on the block at `height` under the read guard, without
    /// cloning it — for readers that only inspect the block, such as a
    /// replaying auditor. `f` must not append to this store: the guard
    /// is held until it returns.
    pub fn with_block<R>(&self, height: u64, f: impl FnOnce(&Block<C>) -> R) -> Option<R> {
        self.read().get(height as usize).map(|block| f(block))
    }

    /// Clone of the tip block.
    pub fn tip(&self) -> Option<Block<C>> {
        self.read().last().map(|block| Block::clone(block))
    }

    /// Validates and appends a block, owned or already shared.
    pub fn append(&self, block: impl Into<Arc<Block<C>>>) -> Result<(), StoreError> {
        let block = block.into();
        let mut chain = self.write();
        Self::check_structure(&chain, &block)?;
        // Root check last: the O(1) structural checks reject cheaply
        // before the O(n) Merkle rebuild runs.
        if !block.tx_root_consistent() {
            return Err(StoreError::TxRootMismatch);
        }
        chain.push(block);
        Ok(())
    }

    /// Appends a block whose transaction root was already verified at
    /// seal time (assembled with [`Block::from_bundle`] from a sealed
    /// `TxBundle`), skipping the per-append Merkle rebuild. The batched
    /// commit path verifies the root once per block instead of once per
    /// miner replica; debug builds still re-check it. Crate-private so
    /// external callers cannot bypass the root validation of
    /// [`ChainStore::append`].
    pub(crate) fn append_sealed(&self, block: Arc<Block<C>>) -> Result<(), StoreError> {
        debug_assert!(
            block.tx_root_consistent(),
            "append_sealed requires a pre-verified tx root"
        );
        let mut chain = self.write();
        Self::check_structure(&chain, &block)?;
        chain.push(block);
        Ok(())
    }

    /// Parent-link and height-continuity checks shared by both appends.
    fn check_structure(chain: &[Arc<Block<C>>], block: &Block<C>) -> Result<(), StoreError> {
        let expected_parent = chain.last().map_or(Hash32::ZERO, |b| b.header.digest());
        if block.header.parent != expected_parent {
            return Err(StoreError::ParentMismatch {
                expected: expected_parent,
                got: block.header.parent,
            });
        }
        let expected_height = chain.len() as u64;
        if block.header.height != expected_height {
            return Err(StoreError::HeightMismatch {
                expected: expected_height,
                got: block.header.height,
            });
        }
        Ok(())
    }

    /// Verifies the hash chain from genesis to tip, reporting the first
    /// divergent block (height and reason) on failure.
    pub fn verify_chain(&self) -> Result<(), ChainFault> {
        let chain = self.read();
        let mut parent = Hash32::ZERO;
        for (i, block) in chain.iter().enumerate() {
            let height = i as u64;
            if block.header.parent != parent {
                return Err(ChainFault {
                    height,
                    kind: ChainFaultKind::ParentLink {
                        expected: parent,
                        got: block.header.parent,
                    },
                });
            }
            if block.header.height != height {
                return Err(ChainFault {
                    height,
                    kind: ChainFaultKind::Height {
                        expected: height,
                        got: block.header.height,
                    },
                });
            }
            if !block.tx_root_consistent() {
                return Err(ChainFault {
                    height,
                    kind: ChainFaultKind::TxRoot,
                });
            }
            parent = block.header.digest();
        }
        Ok(())
    }

    /// All state roots in order (the audit trail of contract states).
    pub fn state_roots(&self) -> Vec<Hash32> {
        self.read().iter().map(|b| b.header.state_root).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;

    fn next_block(store: &ChainStore<u64>, calls: &[u64]) -> Block<u64> {
        let txs: Vec<Transaction<u64>> = calls
            .iter()
            .enumerate()
            .map(|(i, &c)| Transaction::new(0, store.height() * 10 + i as u64, c))
            .collect();
        Block::assemble(
            store.height(),
            store.tip_digest(),
            Hash32::of_bytes(b"state"),
            0,
            store.height(),
            txs,
        )
    }

    #[test]
    fn append_and_verify() {
        let store: ChainStore<u64> = ChainStore::new();
        store.append(next_block(&store, &[1, 2])).unwrap();
        store.append(next_block(&store, &[3])).unwrap();
        assert_eq!(store.height(), 2);
        assert_eq!(store.verify_chain(), Ok(()));
        assert_eq!(store.block_at(0).unwrap().txs.len(), 2);
        assert!(store.block_at(5).is_none());
        assert_eq!(store.with_block(1, |b| b.txs.len()), Some(1));
        assert_eq!(store.with_block(5, |b| b.txs.len()), None);
    }

    #[test]
    fn wrong_parent_rejected() {
        let store: ChainStore<u64> = ChainStore::new();
        store.append(next_block(&store, &[1])).unwrap();
        let mut bad = next_block(&store, &[2]);
        bad.header.parent = Hash32::of_bytes(b"bogus");
        assert!(matches!(
            store.append(bad),
            Err(StoreError::ParentMismatch { .. })
        ));
    }

    #[test]
    fn append_sealed_keeps_structural_checks() {
        let store: ChainStore<u64> = ChainStore::new();
        store
            .append_sealed(Arc::new(next_block(&store, &[1])))
            .unwrap();
        let mut bad = next_block(&store, &[2]);
        bad.header.height = 9;
        assert!(matches!(
            store.append_sealed(Arc::new(bad)),
            Err(StoreError::HeightMismatch { .. })
        ));
        assert_eq!(store.height(), 1);
    }

    #[test]
    fn wrong_height_rejected() {
        let store: ChainStore<u64> = ChainStore::new();
        let mut bad = next_block(&store, &[1]);
        bad.header.height = 7;
        assert!(matches!(
            store.append(bad),
            Err(StoreError::HeightMismatch { .. })
        ));
    }

    #[test]
    fn tampered_txs_rejected() {
        let store: ChainStore<u64> = ChainStore::new();
        let mut bad = next_block(&store, &[1]);
        bad.txs[0].call = 999;
        assert_eq!(store.append(bad), Err(StoreError::TxRootMismatch));
    }

    #[test]
    fn clones_share_state() {
        let store: ChainStore<u64> = ChainStore::new();
        let alias = store.clone();
        store.append(next_block(&store, &[1])).unwrap();
        assert_eq!(alias.height(), 1);
    }

    #[test]
    fn empty_chain_is_valid() {
        let store: ChainStore<u64> = ChainStore::new();
        assert_eq!(store.verify_chain(), Ok(()));
        assert_eq!(store.tip_digest(), Hash32::ZERO);
        assert!(store.tip().is_none());
    }

    #[test]
    fn verify_chain_reports_first_divergent_height_and_reason() {
        // Bypass append's validation to plant specific faults.
        let store: ChainStore<u64> = ChainStore::new();
        store.append(next_block(&store, &[1])).unwrap();
        store.append(next_block(&store, &[2])).unwrap();

        // Tamper with block 1's transactions: tx-root fault at height 1.
        {
            let mut chain = store.write();
            Arc::make_mut(&mut chain[1]).txs[0].call = 999;
        }
        assert_eq!(
            store.verify_chain(),
            Err(ChainFault {
                height: 1,
                kind: ChainFaultKind::TxRoot
            })
        );

        // Break the parent link instead: reported at the same height with
        // the expected digest named.
        let expected_parent = store.block_at(0).unwrap().header.digest();
        {
            let mut chain = store.write();
            chain[1] = Arc::new(Block::assemble(
                1,
                Hash32::of_bytes(b"bogus"),
                Hash32::of_bytes(b"state"),
                0,
                1,
                vec![Transaction::new(0, 10, 2u64)],
            ));
        }
        match store.verify_chain() {
            Err(ChainFault {
                height: 1,
                kind: ChainFaultKind::ParentLink { expected, got },
            }) => {
                assert_eq!(expected, expected_parent);
                assert_eq!(got, Hash32::of_bytes(b"bogus"));
            }
            other => panic!("expected a parent-link fault, got {other:?}"),
        }

        // Height fault: block 1 claims height 9.
        {
            let mut chain = store.write();
            let parent = chain[0].header.digest();
            chain[1] = Arc::new(Block::assemble(
                9,
                parent,
                Hash32::of_bytes(b"state"),
                0,
                1,
                vec![Transaction::new(0, 10, 2u64)],
            ));
        }
        assert_eq!(
            store.verify_chain(),
            Err(ChainFault {
                height: 1,
                kind: ChainFaultKind::Height {
                    expected: 1,
                    got: 9
                }
            })
        );
    }

    #[test]
    fn faults_render_with_height_and_reason() {
        let fault = ChainFault {
            height: 3,
            kind: ChainFaultKind::TxRoot,
        };
        assert_eq!(fault.to_string(), "block 3: transaction root mismatch");
        let fault = ChainFault {
            height: 0,
            kind: ChainFaultKind::Height {
                expected: 0,
                got: 7,
            },
        };
        assert!(fault.to_string().contains("height 7"));
    }

    #[test]
    fn poisoned_lock_recovers_for_later_readers() {
        // A thread that panics while holding the write lock poisons it;
        // the store's accessors recover the (intact) data instead of
        // propagating the poison to every later reader on the replica.
        let store: ChainStore<u64> = ChainStore::new();
        store.append(next_block(&store, &[1])).unwrap();
        let poisoner = store.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.write();
            panic!("simulated writer crash");
        })
        .join();
        assert_eq!(store.height(), 1, "readers must survive the poison");
        assert_eq!(store.verify_chain(), Ok(()));
        store.append(next_block(&store, &[2])).unwrap();
        assert_eq!(store.height(), 2, "writers must survive the poison");
    }
}
