//! Pending-transaction pool.
//!
//! FIFO within a sender, nonce-gap detection across submissions. Leaders
//! drain the pool when proposing a block. A rejected proposal does not
//! come back here: the paper's "wait for another leader to propose" is
//! `ConsensusEngine::commit_bundle`'s view loop, which hands the same
//! bundle to the next leader.
//!
//! # Batched admission
//!
//! The hot path is batch-shaped: every federated round submits one
//! transaction per data owner plus an evaluation trigger, all at once.
//! [`Mempool::submit_batch`] admits such a batch in a single pass —
//! capacity is computed once up front and per-sender nonce expectations
//! are validated incrementally — and [`Mempool::drain_bundle`] hands the
//! consensus engine a sealed [`TxBundle`] whose admission checks and
//! Merkle transaction root are already done, so the engine never repeats
//! them per miner replica.
//!
//! # Capacity invariants
//!
//! * [`Mempool::submit_batch`] never grows the pool past `capacity`, and
//!   nothing else adds to it.
//! * [`Mempool::rollback_admitted`] undoes a batch that was only partly
//!   admitted, before anything else touched the pool.
//! * [`Mempool::release`] is the inverse of a drain for transactions that
//!   will *never* commit (e.g. the engine reported an execution failure):
//!   it rolls the per-sender nonce counters back so the sender is not
//!   wedged behind a permanent gap, and evicts queued transactions the
//!   rollback orphans.

use std::collections::{BTreeMap, VecDeque};

use crate::codec::Encode;
use crate::tx::{AccountId, Transaction, TxBundle};

/// Errors from submitting to the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MempoolError {
    /// Nonce is not the next expected for this sender.
    NonceGap {
        /// The sender.
        sender: AccountId,
        /// Nonce the pool expected next.
        expected: u64,
        /// Nonce received.
        got: u64,
    },
    /// The pool is at capacity.
    Full {
        /// Maximum size.
        capacity: usize,
    },
}

impl std::fmt::Display for MempoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonceGap {
                sender,
                expected,
                got,
            } => write!(f, "sender {sender}: expected nonce {expected}, got {got}"),
            Self::Full { capacity } => write!(f, "mempool full (capacity {capacity})"),
        }
    }
}

impl std::error::Error for MempoolError {}

/// Result of a [`Mempool::submit_batch`] call.
///
/// Admission is per-transaction and greedy: every transaction that fits
/// (capacity-wise and nonce-wise, in batch order) is admitted; the rest
/// come back with the reason, so the caller can retry or drop them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchAdmission<C> {
    /// Transactions admitted to the pool.
    pub admitted: usize,
    /// Transactions turned away, each with its rejection reason, in
    /// batch order.
    pub rejected: Vec<(Transaction<C>, MempoolError)>,
}

impl<C> BatchAdmission<C> {
    /// True when every transaction in the batch was admitted.
    pub fn all_admitted(&self) -> bool {
        self.rejected.is_empty()
    }
}

/// The pool.
#[derive(Debug, Clone)]
pub struct Mempool<C> {
    queue: VecDeque<Transaction<C>>,
    next_nonce: BTreeMap<AccountId, u64>,
    capacity: usize,
}

impl<C: Encode + Clone> Mempool<C> {
    /// Creates a pool with the given capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool capacity must be positive");
        Self {
            queue: VecDeque::new(),
            next_nonce: BTreeMap::new(),
            capacity,
        }
    }

    /// Admits a whole batch in one pass, enforcing contiguous nonces per
    /// sender: remaining capacity is computed once, and each sender's
    /// nonce expectation is read and written once per *run* of
    /// same-sender transactions (the counter is cached across the run
    /// and flushed to the map only at run boundaries), not once per
    /// transaction.
    ///
    /// Admission is greedy — a rejected transaction does not block later
    /// ones (unless they depend on its nonce). Never grows the pool past
    /// `capacity`.
    pub fn submit_batch(&mut self, txs: Vec<Transaction<C>>) -> BatchAdmission<C> {
        let mut free = self.capacity.saturating_sub(self.queue.len());
        let mut admitted = 0usize;
        let mut rejected = Vec::new();
        // The current run's cached counter; flushed to `next_nonce` when
        // the sender changes and once after the loop.
        let mut run: Option<(AccountId, u64)> = None;
        for tx in txs {
            if free == 0 {
                rejected.push((
                    tx,
                    MempoolError::Full {
                        capacity: self.capacity,
                    },
                ));
                continue;
            }
            let sender = tx.sender;
            let expected = match run {
                Some((s, next)) if s == sender => next,
                _ => {
                    if let Some((s, next)) = run.take() {
                        self.next_nonce.insert(s, next);
                    }
                    self.next_nonce.get(&sender).copied().unwrap_or(0)
                }
            };
            if tx.nonce != expected {
                let got = tx.nonce;
                rejected.push((
                    tx,
                    MempoolError::NonceGap {
                        sender,
                        expected,
                        got,
                    },
                ));
                // The failed tx does not advance the sender's counter.
                run = Some((sender, expected));
                continue;
            }
            run = Some((sender, expected + 1));
            self.queue.push_back(tx);
            free -= 1;
            admitted += 1;
        }
        if let Some((s, next)) = run {
            self.next_nonce.insert(s, next);
        }
        BatchAdmission { admitted, rejected }
    }

    /// Undoes the admissions of the most recent [`Mempool::submit_batch`]
    /// call: pops that batch's `admitted` transactions off the queue tail
    /// and rewinds their senders' nonce counters, returning them. Earlier
    /// queued transactions are untouched (their nonces sit strictly below
    /// every rewind point).
    ///
    /// Must be called before any further submission or drain — the
    /// rollback assumes the queue tail is still exactly the batch.
    pub fn rollback_admitted(&mut self, admitted: usize) -> Vec<Transaction<C>> {
        let start = self.queue.len().saturating_sub(admitted);
        let rolled: Vec<Transaction<C>> = self.queue.split_off(start).into();
        for tx in &rolled {
            if let Some(next) = self.next_nonce.get_mut(&tx.sender) {
                *next = (*next).min(tx.nonce);
            }
        }
        rolled
    }

    /// Takes up to `max` transactions for a block proposal.
    fn drain(&mut self, max: usize) -> Vec<Transaction<C>> {
        let take = max.min(self.queue.len());
        self.queue.drain(..take).collect()
    }

    /// Drains up to `max` transactions sealed as a [`TxBundle`]: the
    /// pool's admission checks guarantee per-sender nonce contiguity, so
    /// the bundle is sealed without re-validating, and the engine can
    /// commit it without per-transaction checks.
    pub fn drain_bundle(&mut self, max: usize) -> TxBundle<C> {
        let txs = self.drain(max);
        debug_assert!(
            TxBundle::check_contiguous(&txs).is_ok(),
            "pool invariant: drained txs have contiguous per-sender nonces"
        );
        TxBundle::seal_unchecked(txs)
    }

    /// Drains one sealed [`TxBundle`] per entry of `sizes`, in order —
    /// the streamed multi-bundle round: bundle `i` takes the next
    /// `sizes[i]` queued transactions (fewer if the pool runs dry).
    ///
    /// Each bundle independently satisfies the contiguity invariant
    /// that [`Mempool::drain_bundle`] seals under, because per-sender
    /// nonce order is preserved across consecutive drains.
    pub fn drain_bundles(&mut self, sizes: &[usize]) -> Vec<TxBundle<C>> {
        sizes.iter().map(|&s| self.drain_bundle(s)).collect()
    }

    /// Rolls back the nonce accounting for drained transactions that
    /// will never commit (e.g. their block kept failing execution and the
    /// driver dropped them).
    ///
    /// Without this, `next_nonce` stays advanced past the dropped
    /// transactions and the sender is permanently wedged: every
    /// resubmission is a [`MempoolError::NonceGap`]. For each affected
    /// sender the counter rewinds to the smallest dropped nonce, and any
    /// *queued* transactions from that sender at or above the rewind
    /// point — now orphaned behind the gap — are evicted and returned so
    /// the caller can account for them.
    pub fn release(&mut self, txs: &[Transaction<C>]) -> Vec<Transaction<C>> {
        let mut rewind: BTreeMap<AccountId, u64> = BTreeMap::new();
        for tx in txs {
            let e = rewind.entry(tx.sender).or_insert(tx.nonce);
            *e = (*e).min(tx.nonce);
        }
        for (&sender, &nonce) in &rewind {
            if let Some(next) = self.next_nonce.get_mut(&sender) {
                *next = (*next).min(nonce);
            }
        }
        let mut evicted = Vec::new();
        self.queue.retain(|tx| {
            let orphaned = rewind.get(&tx.sender).is_some_and(|&n| tx.nonce >= n);
            if orphaned {
                evicted.push(tx.clone());
            }
            !orphaned
        });
        evicted
    }

    /// Admission capacity the pool was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no transactions are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Next expected nonce for a sender.
    pub fn expected_nonce(&self, sender: AccountId) -> u64 {
        self.next_nonce.get(&sender).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(sender: AccountId, nonce: u64) -> Transaction<u64> {
        Transaction::new(sender, nonce, nonce * 10)
    }

    /// Admits one transaction as a singleton batch.
    fn submit(pool: &mut Mempool<u64>, tx: Transaction<u64>) -> Result<(), MempoolError> {
        match pool.submit_batch(vec![tx]).rejected.pop() {
            Some((_, e)) => Err(e),
            None => Ok(()),
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut pool = Mempool::new(10);
        submit(&mut pool, tx(0, 0)).unwrap();
        submit(&mut pool, tx(1, 0)).unwrap();
        submit(&mut pool, tx(0, 1)).unwrap();
        let drained = pool.drain(10);
        assert_eq!(
            drained
                .iter()
                .map(|t| (t.sender, t.nonce))
                .collect::<Vec<_>>(),
            vec![(0, 0), (1, 0), (0, 1)]
        );
    }

    #[test]
    fn nonce_gap_rejected() {
        let mut pool = Mempool::new(10);
        assert_eq!(
            submit(&mut pool, tx(0, 5)).unwrap_err(),
            MempoolError::NonceGap {
                sender: 0,
                expected: 0,
                got: 5
            }
        );
        submit(&mut pool, tx(0, 0)).unwrap();
        assert!(submit(&mut pool, tx(0, 0)).is_err(), "replay rejected");
        assert_eq!(pool.expected_nonce(0), 1);
    }

    #[test]
    fn capacity_enforced() {
        let mut pool = Mempool::new(2);
        submit(&mut pool, tx(0, 0)).unwrap();
        submit(&mut pool, tx(0, 1)).unwrap();
        assert_eq!(
            submit(&mut pool, tx(0, 2)).unwrap_err(),
            MempoolError::Full { capacity: 2 }
        );
    }

    #[test]
    fn drain_respects_max() {
        let mut pool = Mempool::new(10);
        for n in 0..5 {
            submit(&mut pool, tx(0, n)).unwrap();
        }
        assert_eq!(pool.drain(2).len(), 2);
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.drain(100).len(), 3);
        assert!(pool.is_empty());
    }

    #[test]
    fn drain_bundles_streams_sized_bundles_in_order() {
        let mut pool = Mempool::new(16);
        for n in 0..3 {
            submit(&mut pool, tx(0, n)).unwrap();
        }
        for n in 0..3 {
            submit(&mut pool, tx(1, n)).unwrap();
        }
        let bundles = pool.drain_bundles(&[2, 3, 4]);
        assert_eq!(bundles.len(), 3);
        assert_eq!(bundles[0].txs().len(), 2);
        assert_eq!(bundles[1].txs().len(), 3);
        assert_eq!(bundles[2].txs().len(), 1, "pool ran dry");
        assert!(pool.is_empty());
        // Per-sender nonce order is preserved across the stream.
        let mut last: std::collections::BTreeMap<AccountId, u64> = Default::default();
        for b in &bundles {
            for t in b.txs() {
                if let Some(prev) = last.insert(t.sender, t.nonce) {
                    assert_eq!(t.nonce, prev + 1, "sender {} out of order", t.sender);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _: Mempool<u64> = Mempool::new(0);
    }

    #[test]
    fn submit_batch_matches_sequential_submits() {
        // One batch ≡ the same transactions as singleton batches: the
        // nonce counter cached across a same-sender run and flushed at run
        // boundaries must read exactly what the map would.
        let batch: Vec<Transaction<u64>> = vec![
            tx(0, 0),
            tx(1, 0),
            tx(0, 1),
            tx(1, 2), // gap: expected 1
            tx(0, 2),
            tx(1, 1),
        ];
        let mut sequential = Mempool::new(10);
        let mut seq_rejected = Vec::new();
        for t in batch.clone() {
            if let Err(e) = submit(&mut sequential, t.clone()) {
                seq_rejected.push((t, e));
            }
        }
        let mut batched = Mempool::new(10);
        let admission = batched.submit_batch(batch);
        assert_eq!(admission.admitted, 5);
        assert_eq!(admission.rejected, seq_rejected);
        assert!(!admission.all_admitted());
        assert_eq!(batched.drain(10), sequential.drain(10));
        assert_eq!(batched.expected_nonce(0), 3);
        assert_eq!(batched.expected_nonce(1), 2);
    }

    #[test]
    fn submit_batch_checks_capacity_once_and_never_overfills() {
        let mut pool = Mempool::new(3);
        submit(&mut pool, tx(9, 0)).unwrap();
        let admission = pool.submit_batch((0..5).map(|n| tx(0, n)).collect());
        assert_eq!(admission.admitted, 2, "only the free slots are filled");
        assert_eq!(pool.len(), 3);
        assert!(admission
            .rejected
            .iter()
            .all(|(_, e)| matches!(e, MempoolError::Full { capacity: 3 })));
        // The rejected txs did not advance the nonce counter: they can be
        // resubmitted once space frees up.
        pool.drain(3);
        let retry = pool.submit_batch(admission.rejected.into_iter().map(|(t, _)| t).collect());
        assert!(retry.all_admitted());
    }

    #[test]
    fn drain_bundle_seals_pool_order() {
        let mut pool = Mempool::new(10);
        submit(&mut pool, tx(0, 0)).unwrap();
        submit(&mut pool, tx(1, 0)).unwrap();
        submit(&mut pool, tx(0, 1)).unwrap();
        let bundle = pool.drain_bundle(2);
        assert_eq!(bundle.len(), 2);
        assert_eq!(
            bundle.tx_root(),
            crate::block::Block::tx_root_of(bundle.txs())
        );
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn rollback_admitted_restores_pre_batch_state() {
        let mut pool = Mempool::new(4);
        submit(&mut pool, tx(0, 0)).unwrap(); // pre-batch, must survive
        let admission = pool.submit_batch(vec![tx(0, 1), tx(1, 0), tx(1, 1), tx(1, 2)]);
        assert_eq!(admission.admitted, 3, "capacity 4: 1 pre-batch + 3");
        assert!(!admission.all_admitted());

        let rolled = pool.rollback_admitted(admission.admitted);
        assert_eq!(rolled.len(), 3);
        assert_eq!(pool.len(), 1, "pre-batch tx untouched");
        assert_eq!(pool.expected_nonce(0), 1, "rewound to pre-batch value");
        assert_eq!(pool.expected_nonce(1), 0, "rewound to zero");

        // Once space frees up, the rolled-back batch resubmits cleanly.
        pool.drain(1);
        assert!(pool.submit_batch(rolled).all_admitted());
    }

    #[test]
    fn release_unwedges_sender_after_dropped_drain() {
        let mut pool = Mempool::new(10);
        for n in 0..3 {
            submit(&mut pool, tx(0, n)).unwrap();
        }
        submit(&mut pool, tx(1, 0)).unwrap();
        let drained = pool.drain(2); // takes sender 0's nonces 0 and 1
        assert_eq!(pool.expected_nonce(0), 3);

        // Execution failed; without release the sender is wedged.
        assert!(matches!(
            submit(&mut pool, tx(0, 0)).unwrap_err(),
            MempoolError::NonceGap { expected: 3, .. }
        ));

        let evicted = pool.release(&drained);
        // Queued nonce 2 is orphaned by the rollback and evicted.
        assert_eq!(evicted.iter().map(|t| t.nonce).collect::<Vec<_>>(), vec![2]);
        assert_eq!(pool.expected_nonce(0), 0, "counter rewound");
        assert_eq!(pool.expected_nonce(1), 1, "other senders untouched");
        assert_eq!(pool.len(), 1, "sender 1's tx survives");

        // The sender resubmits from the rewind point.
        for n in 0..3 {
            submit(&mut pool, tx(0, n)).unwrap();
        }
        assert_eq!(pool.len(), 4);
    }
}
