//! The contract's state surface: genesis, read accessors, the
//! durability snapshot and its strict inverse, and the
//! [`SmartContract`] binding with the consensus state digest.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use fl_chain::codec::{Decode, DecodeError, Encode, Reader};
use fl_chain::contract::{ExecutionOutcome, SmartContract, TxContext};
use fl_chain::gas::GasSchedule;
use fl_chain::hash::Hash32;
use fl_chain::tx::AccountId;
use fl_crypto::shamir::Share;
use fl_ml::dataset::Dataset;
use numeric::U256;

use super::section::{tagged, Section};
use super::{
    AccuracyUtility, FlCall, FlContract, FlError, FlParams, RoundPhase, RoundRecord, Table,
};

/// What `restore` answers for a well-formed entry no call writes.
fn refused(type_name: &'static str) -> DecodeError {
    DecodeError::BadTag {
        type_name,
        tag: 0xff,
    }
}

impl super::Genesis {
    /// `len ‖ (id ‖ value)*` in ascending id: the map the table stands for.
    fn encode_table<T>(
        &self,
        table: &Table<T>,
        out: &mut Vec<u8>,
        value: impl Fn(&T, &mut Vec<u8>),
    ) {
        (table.filled as u64).encode_to(out);
        for &p in &self.by_id {
            if let Some(v) = &table.slots[p] {
                self.params.owners[p].encode_to(out);
                value(v, out);
            }
        }
    }

    /// The table a map stands for; `None` for a stranger or a refused value.
    fn table_from<D, T: Clone>(
        &self,
        map: BTreeMap<AccountId, D>,
        value: impl Fn(AccountId, D) -> Option<T>,
    ) -> Option<Table<T>> {
        let mut table = Table::new(self.params.owners.len());
        for (id, v) in map {
            let v = value(id, v)?;
            table.fill(self.position(id).ok()?, || v);
        }
        Some(table)
    }
}

impl FlContract {
    /// Creates the genesis contract state.
    ///
    /// # Panics
    ///
    /// Panics if [`FlParams::validate`] rejects the parameters; a caller
    /// holding parameters it did not build calls that first.
    pub fn genesis(params: FlParams, test_set: Dataset) -> Self {
        if let Err(e) = params.validate(&test_set) {
            panic!("{e}");
        }
        let n = params.owners.len();
        let global_model = vec![0.0; params.model_dim];
        let contributions = params.owners.iter().map(|&o| (o, 0.0)).collect();
        let mut by_id: Vec<usize> = (0..n).collect();
        by_id.sort_unstable_by_key(|&p| params.owners[p]);
        Self {
            genesis: Arc::new(super::Genesis {
                by_id,
                utility: AccuracyUtility::new(&test_set, params.num_features, params.num_classes),
                params_digest: tagged("/params", |buf| params.encode_to(buf)),
                params,
            }),
            gas: GasSchedule::default(),
            keys: Section::new(Table::new(n)),
            escrows: Section::new(Table::new(n)),
            current_round: 0,
            phase: RoundPhase::Submitting,
            submissions: Section::new(Table::new(n)),
            recovery_shares: Table::new(n),
            contributions: Section::new(contributions),
            global_model: Section::new(global_model),
            history: Vec::new(),
            history_leaves: Section::default(),
        }
    }

    /// Static parameters.
    pub fn params(&self) -> &FlParams {
        &self.genesis.params
    }

    /// Current (unevaluated) round.
    pub fn current_round(&self) -> u64 {
        self.current_round
    }

    /// True once all rounds are evaluated.
    pub fn finished(&self) -> bool {
        self.current_round >= self.params().total_rounds
    }

    /// Cumulative contribution (total SV `v_i = Σ_r v_i^r`) per owner.
    pub fn contributions(&self) -> &BTreeMap<AccountId, f64> {
        &self.contributions
    }

    /// The current global model (flat weights).
    pub fn global_model(&self) -> &[f64] {
        &self.global_model
    }

    /// The audit trail of evaluated rounds, one shared record each.
    pub fn history(&self) -> &[Arc<RoundRecord>] {
        &self.history
    }

    /// Test-only mutable access to one record, used to *forge* the audit
    /// trail (e.g. a tampered survivor set) and prove the digest catches
    /// it.
    #[cfg(test)]
    pub(crate) fn history_mut(&mut self, index: usize) -> &mut RoundRecord {
        self.history_leaves[index].take();
        Arc::make_mut(&mut self.history[index])
    }

    /// Advertised public key of an owner.
    pub fn public_key_of(&self, owner: AccountId) -> Option<&[u8]> {
        self.keys.slots[self.genesis.position(owner).ok()?].as_deref()
    }

    /// Current lifecycle phase of the round under assembly.
    pub fn phase(&self) -> &RoundPhase {
        &self.phase
    }
}

impl FlContract {
    /// Serializes the contract's **dynamic** state — everything that is
    /// not a genesis artefact — for a durability snapshot
    /// ([`fl_chain::durability::DurableStore::write_snapshot`]).
    ///
    /// The static half (params, test set) is deliberately excluded: both
    /// are public setup-stage artefacts an auditor already holds (the
    /// same ones [`crate::audit::replay_chain`] takes), and excluding
    /// them keeps snapshots proportional to the live state. The blob is
    /// opaque to the chain layer; [`FlContract::restore`] is its inverse,
    /// and `fedchain::audit::fast_sync` verifies a restored state against
    /// the committed state root before trusting it.
    pub fn snapshot_state(&self) -> Vec<u8> {
        // Sized for the escrows and the masked updates, the bulk of a
        // mid-round state.
        let (n, dim) = (self.params().owners.len(), self.params().model_dim);
        let bulk = (48 + 32 * n) * self.escrows.filled + (16 + 8 * dim) * self.submissions.filled;
        let mut out = Vec::with_capacity(bulk + 64 * n + 8 * dim);
        let g = &self.genesis;
        self.current_round.encode_to(&mut out);
        self.phase.encode_to(&mut out);
        g.encode_table(&self.keys, &mut out, Vec::encode_to);
        g.encode_table(&self.escrows, &mut out, Vec::encode_to);
        g.encode_table(&self.submissions, &mut out, |update, out| {
            update.encode_to(out)
        });
        self.encode_recovery_shares(&mut out);
        self.contributions.encode_to(&mut out);
        self.global_model.encode_to(&mut out);
        self.history.encode_to(&mut out);
        out
    }

    /// `len ‖ (dropped ‖ len ‖ (provider ‖ x ‖ y)*)*`: the verified
    /// recovery shares as the snapshot stores them and as the state
    /// digest binds them.
    fn encode_recovery_shares(&self, out: &mut Vec<u8>) {
        let g = &self.genesis;
        g.encode_table(&self.recovery_shares, out, |shares, out| {
            g.encode_table(shares, out, |share, out| {
                share.x.encode_to(out);
                share.y.to_be_bytes().encode_to(out);
            })
        });
    }

    /// Rebuilds a contract from the genesis artefacts — parameters that
    /// pass [`FlParams::validate`], as for [`FlContract::genesis`] — plus
    /// a [`FlContract::snapshot_state`] blob.
    ///
    /// Decoding is strict (truncated, malformed, trailing bytes, a
    /// stranger's entry or one no call writes all `Err`), but a
    /// *well-formed forgery* cannot be detected here: the caller must check
    /// [`SmartContract::state_digest`] of the result against the state root
    /// committed at the snapshot height, as `fedchain::audit::fast_sync` does.
    pub fn restore(
        params: FlParams,
        test_set: Dataset,
        snapshot: &[u8],
    ) -> Result<Self, DecodeError> {
        let mut c = Self::genesis(params, test_set);
        let g = Arc::clone(&c.genesis);
        let mut r = Reader::new(snapshot);
        c.current_round = u64::decode_from(&mut r)?;
        c.phase = RoundPhase::decode_from(&mut r)?;
        let keys = g.table_from(Decode::decode_from(&mut r)?, |id, key: Vec<u8>| {
            super::check_key(id, &key).ok()?;
            Some(key)
        });
        c.keys = Section::new(keys.ok_or(refused("FlContract keys"))?);
        let escrows = g.table_from(Decode::decode_from(&mut r)?, |_, escrow: Vec<Hash32>| {
            (escrow.len() == g.params.owners.len()).then_some(escrow)
        });
        c.escrows = Section::new(escrows.ok_or(refused("FlContract escrows"))?);
        let updates = g.table_from(Decode::decode_from(&mut r)?, |_, update: Vec<u64>| {
            (update.len() == g.params.model_dim).then(|| Section::new(update))
        });
        c.submissions = Section::new(updates.ok_or(refused("FlContract updates"))?);
        let shares = g.table_from(Decode::decode_from(&mut r)?, |_, shares| {
            g.table_from(shares, |_, (x, y): (u64, Vec<u8>)| {
                // `U256::from_be_bytes` panics on more than 32 bytes.
                let y = (y.len() == 32).then(|| U256::from_be_bytes(&y))?;
                Some(Share { x, y })
            })
        });
        c.recovery_shares = shares.ok_or(refused("FlContract recovery shares"))?;
        c.contributions = Section::new(Decode::decode_from(&mut r)?);
        // `finish_round` walks the totals in this order.
        let owners_by_id = g.by_id.iter().map(|&p| g.params.owners[p]);
        if !c.contributions.keys().copied().eq(owners_by_id) {
            return Err(refused("FlContract contributions"));
        }
        c.global_model = Section::new(Decode::decode_from(&mut r)?);
        c.history = Vec::decode_from(&mut r)?;
        *c.history_leaves = vec![OnceLock::new(); c.history.len()];
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes {
                remaining: r.remaining(),
            });
        }
        Ok(c)
    }
}

impl SmartContract for FlContract {
    type Call = FlCall;
    type Error = FlError;

    /// The sender of an owner's call becomes a position here.
    fn execute(&mut self, ctx: &TxContext, call: &FlCall) -> Result<ExecutionOutcome, FlError> {
        let sender = self.genesis.position(ctx.sender);
        match call {
            FlCall::AdvertiseKey { public_key } => self.advertise_key(sender?, public_key),
            FlCall::SubmitMaskedUpdate { round, masked } => {
                self.submit_update(sender?, *round, masked)
            }
            FlCall::EvaluateRound { round } => self.evaluate_round(*round),
            FlCall::EscrowKeyShares { commitments } => self.escrow_key_shares(sender?, commitments),
            FlCall::SubmitRecoveryShare {
                round,
                dropped,
                share_x,
                share_y,
            } => self.submit_recovery_share(sender?, *round, *dropped, *share_x, share_y),
        }
    }

    /// The state root: a hash over one memoised digest per section, so
    /// a block re-hashes the sections it touched and nothing else.
    ///
    /// `H(tag, bytes)` is SHA-256 over the string `transparent-fl/state`
    /// with `tag` appended, in its [`fl_chain::codec`] encoding (`u64`
    /// little-endian byte length, then the bytes), followed by `bytes`;
    /// values use their `codec` encoding. The root is `H("", ·)` over the
    /// rows top to bottom, a tagged row as its 32-byte digest, the others
    /// inline.
    ///
    /// | section | tag | bytes | re-hashed after |
    /// |---|---|---|---|
    /// | params | `/params` | [`FlParams`] | never: fixed at genesis |
    /// | round, phase | — | `u64`, [`RoundPhase`] | every root |
    /// | keys | `/keys` | table as map owner → key bytes | `AdvertiseKey` |
    /// | escrows | `/escrows` | table as map owner → commitments | `EscrowKeyShares` |
    /// | submissions | `/submissions` | table as `len ‖ (owner ‖ H("/update", masked words))*` | `SubmitMaskedUpdate` (the new leaf once, then the list), round end |
    /// | recovery shares | — | tables as `len ‖ (dropped ‖ len ‖ (provider ‖ x ‖ y)*)*` | every root |
    /// | contributions | `/contributions` | map owner → `f64` | round end |
    /// | global model | `/model` | `Vec<f64>` | round end |
    /// | history | `/history` | `len ‖ H("/record", `[`RoundRecord`]`)*` | round end (the new leaf once, then the list) |
    ///
    /// A memo is dropped by any mutable borrow of its section, copied by
    /// `clone` (which shares the section's value until either side
    /// writes to it), and absent from a snapshot: a restored replica
    /// computes every digest from the values it read.
    fn state_digest(&self) -> Hash32 {
        let g = &self.genesis;
        let keys = self.keys.digest("/keys", |keys, buf| {
            g.encode_table(keys, buf, Vec::encode_to)
        });
        let escrows = self.escrows.digest("/escrows", |escrows, buf| {
            g.encode_table(escrows, buf, Vec::encode_to)
        });
        let submissions = self.submissions.digest("/submissions", |updates, buf| {
            g.encode_table(updates, buf, |update, buf| {
                update.digest("/update", Vec::encode_to).encode_to(buf)
            })
        });
        let contributions = self
            .contributions
            .digest("/contributions", BTreeMap::encode_to);
        let global_model = self.global_model.digest("/model", Vec::encode_to);
        let history = self.history_leaves.digest("/history", |leaves, buf| {
            debug_assert_eq!(leaves.len(), self.history.len());
            (leaves.len() as u64).encode_to(buf);
            for (record, leaf) in self.history.iter().zip(leaves) {
                leaf.get_or_init(|| tagged("/record", |buf| record.encode_to(buf)))
                    .encode_to(buf);
            }
        });
        tagged("", |buf| {
            self.genesis.params_digest.encode_to(buf);
            self.current_round.encode_to(buf);
            self.phase.encode_to(buf);
            keys.encode_to(buf);
            escrows.encode_to(buf);
            submissions.encode_to(buf);
            self.encode_recovery_shares(buf);
            contributions.encode_to(buf);
            global_model.encode_to(buf);
            history.encode_to(buf);
        })
    }
}
