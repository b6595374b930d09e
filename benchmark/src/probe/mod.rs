//! The replay probes of the traced pass: one real op's artefacts pushed
//! through each layer's public entry point under spans, at thread cap 1
//! so layer times add.
//!
//! Two groups of probe spans hang under each traced op:
//!
//! * `probe.path` ([`path`]) re-does the whole op layer by layer, in the
//!   order the protocol does it — world generation, owner construction,
//!   key escrow, genesis, then per committed block: local training and
//!   masking (on a round's first block), mempool admission, bundle
//!   sealing, consensus commit, WAL append, snapshot — and finally the
//!   cold open and replay. Its leaves are the *blocking path*:
//!   `trace.coverage` is their summed self time over the wall time of
//!   the real op at cap 1.
//! * `probe.detail` ([`detail`]) times one layer's primitive on the same
//!   artefacts (DH agreements, mask expansion, dropout recovery, the SV
//!   estimator, one contract replica by call kind, codec, fast-sync,
//!   …). These nest *inside* path work, so they never count towards
//!   coverage.
//!
//! The probes call public entry points only and hold what they
//! recomputed to the chain's *content* — the test set, every block's
//! transaction and state root, a clean replay, exact group values — and
//! to the layers' own contracts (pair masks cancel, recovery leaves the
//! survivors' plaintext sum, decoding inverts encoding). How the
//! protocol seeds its keys, picks its miners or batches its flushes is
//! not re-derived here, so a change to any of those does not fail a
//! traced op.

mod detail;
mod path;

use fedchain::config::FlConfig;
use fedchain::FlCall;
use fl_crypto::shamir::Share;
use numeric::U256;

use crate::op::{CheckFailure, OpArtefacts, Scratch};
use crate::trace::{SpanId, Tracer};

fn fail(check: &'static str, detail: impl Into<String>) -> CheckFailure {
    CheckFailure::new(check, detail)
}

/// One round as the path probe re-did it: what the detail probes replay.
struct RoundReplay {
    round: u64,
    /// Flat group list of the round (cohorts concatenated).
    groups: Vec<Vec<usize>>,
    /// Owner positions that dropped this round, ascending.
    dropped: Vec<usize>,
    /// Masked submission per owner (`None` for dropped owners).
    masked: Vec<Option<Vec<u64>>>,
    /// Plaintext ring encoding per owner (`None` for dropped owners).
    plain: Vec<Option<Vec<u64>>>,
    /// Aggregate model per group (`None` when every member dropped).
    group_models: Vec<Option<Vec<f64>>>,
}

impl RoundReplay {
    fn alive(&self, owner: usize) -> bool {
        self.dropped.binary_search(&owner).is_err()
    }
}

/// What the path probe built the owners with.
struct Owners {
    /// Advertised public keys by owner position.
    publics: Vec<U256>,
    /// `escrows[i][j]`: owner `j`'s share of owner `i`'s key (empty when
    /// the run schedules no dropouts).
    escrows: Vec<Vec<Share>>,
    /// Rows of the largest shard.
    shard_rows: usize,
}

/// Seed of the keys the probes' owners hold. The benchmark's own: keys
/// cost the same whatever they are derived from.
const PROBE_KEY_SEED: u64 = 0x70_72_6f_62_65;

/// Span name of a contract call kind.
fn call_kind(call: &FlCall) -> &'static str {
    match call {
        FlCall::AdvertiseKey { .. } | FlCall::EscrowKeyShares { .. } => "fedchain.contract.setup",
        FlCall::SubmitMaskedUpdate { .. } => "fedchain.contract.submit",
        FlCall::EvaluateRound { .. } => "fedchain.contract.evaluate",
        FlCall::SubmitRecoveryShare { .. } => "fedchain.contract.recovery",
    }
}

/// Layers only some workloads enter. Each still gets one span per
/// traced op — around nothing, when the op never called the layer — so
/// on such a workload the layer's time reads as what two clock readings
/// cost instead of a constant zero.
const OPTIONAL_LAYERS: [&str; 5] = [
    "crypto.dh.agree",
    "crypto.shamir.escrow",
    "crypto.dropout.recover",
    "fedchain.contract.recovery",
    "chain.durability.snapshot",
];

/// Replays traced op `op`'s artefacts through every layer.
///
/// Spans land under `parent` in `tracer`; counts are recorded under the
/// metric's own name. The thread cap must already be 1.
pub fn probe_op(
    tracer: &mut Tracer,
    op: usize,
    parent: SpanId,
    config: &FlConfig,
    art: &OpArtefacts,
    scratch: &Scratch,
) -> Result<(), CheckFailure> {
    let mut tracer = tracer.for_op(op);
    let span = tracer.open("probe.path", parent);
    let replay = path::probe(&mut tracer, span, config, art, scratch);
    tracer.close(span);
    let (rounds, owners) = replay?;

    let span = tracer.open("probe.detail", parent);
    let result = detail::probe(&mut tracer, span, config, art, &rounds, &owners);
    for layer in OPTIONAL_LAYERS {
        if !tracer.has_span(layer) {
            tracer.probe(layer, span, || ());
        }
    }
    tracer.close(span);
    result
}
