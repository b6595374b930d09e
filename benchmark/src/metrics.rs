//! The benchmark's metric tables — the single source `BENCHMARK.json`
//! is held to by a self-test. End-to-end metrics are what a data owner
//! or an auditor sees and carry a regression bound; per-layer metrics
//! come from the traced pass and carry none.

/// Which way a metric improves. Recorded for `BENCHMARK.json`: the
/// program itself never reads it, the self-test that holds the file to
/// these tables does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// A metric reported with `--trace 0`.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// End-to-end metrics, per workload.
///
/// Timings are in *reference units* (`ref`): seconds divided by the
/// bracketing reference-kernel seconds (see `refkernel.rs`), and they
/// are **lower quartiles** over the timed ops, not medians: on a shared
/// box interference only ever adds time, in spells that last seconds,
/// so the faster half of a run's ops is where the program's own cost
/// shows. Over ten sets the quartile's spread was 12 % where the
/// median's was 19 % (`stream_churn`, a busy spell), and no worse
/// elsewhere. Even so the box does not support a bound tighter than
/// the contract's widest. `setup_s` is raw seconds — name and unit are
/// fixed by the benchmark contract.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_ref_p25",
        unit: "ref",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "audit_ref_p25",
        unit: "ref",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ref_p25",
        unit: "ref",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wal_bytes_per_owner_round",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A metric reported with `--trace 1`.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics; layer names are crate/module names. A metric
/// ending in `_s` is the summed duration of the op's spans named like
/// the metric without the suffix.
pub const PER_LAYER: [PerLayer; 61] = [
    // The real op, from its public report and the timed loop.
    layer("fedchain.protocol.stage_train_mask_s", "s", Lower),
    layer("fedchain.protocol.stage_assemble_s", "s", Lower),
    layer("fedchain.protocol.stage_on_chain_s", "s", Lower),
    layer("fedchain.protocol.stage_evaluate_s", "s", Lower),
    layer("fedchain.protocol.wall_s", "s", Lower),
    layer("fedchain.protocol.overlap_s", "s", Higher),
    layer("fedchain.protocol.run_s_p50", "s", Lower),
    layer("fedchain.audit.audit_s_p50", "s", Lower),
    // World and training.
    layer("fedchain.world.generate_s", "s", Lower),
    layer("ml.dataset.rows", "count", Lower),
    layer("ml.logreg.train_s", "s", Lower),
    layer("ml.logreg.epoch_rows", "count", Lower),
    layer("numeric.linalg.gemm_gflops", "GFLOP/s", Higher),
    // Key agreement, masking, dropout recovery.
    layer("numeric.uint.modexp_us", "us", Lower),
    layer("fedchain.owner.new_s", "s", Lower),
    layer("crypto.dh.agree_s", "s", Lower),
    layer("crypto.dh.agreements", "count", Lower),
    layer("crypto.masking.expand_s", "s", Lower),
    layer("crypto.masking.bytes", "B", Lower),
    layer("fedchain.owner.mask_s", "s", Lower),
    layer("fedchain.owner.pair_cache_hit_ratio", "ratio", Higher),
    layer("crypto.shamir.escrow_s", "s", Lower),
    layer("crypto.dropout.recover_s", "s", Lower),
    layer("crypto.dropout.recoveries", "count", Lower),
    // Contribution evaluation.
    layer("shapley.estimator.estimate_s", "s", Lower),
    layer("shapley.estimator.evals", "count", Lower),
    layer("shapley.estimator.samples", "count", Lower),
    layer("shapley.utility.eval_us", "us", Lower),
    layer("shapley.utility.cache_hit_ratio", "ratio", Higher),
    // One contract replica, by call kind.
    layer("fedchain.contract.setup_s", "s", Lower),
    layer("fedchain.contract.submit_s", "s", Lower),
    layer("fedchain.contract.evaluate_s", "s", Lower),
    layer("fedchain.contract.recovery_s", "s", Lower),
    layer("fedchain.contract.state_digest_s", "s", Lower),
    layer("fedchain.contract.rejected_txs", "count", Lower),
    // Mempool, consensus, durability, codec.
    layer("chain.mempool.admit_s", "s", Lower),
    layer("chain.mempool.txs", "count", Lower),
    layer("chain.mempool.rejected", "count", Lower),
    layer("chain.merkle.root_s", "s", Lower),
    layer("chain.consensus.commit_s", "s", Lower),
    layer("chain.consensus.reexecutions", "count", Lower),
    layer("chain.consensus.failed_views", "count", Lower),
    layer("chain.durability.append_s", "s", Lower),
    layer("chain.durability.fsyncs", "count", Lower),
    layer("chain.durability.wal_bytes", "B", Lower),
    layer("chain.durability.snapshot_s", "s", Lower),
    layer("chain.durability.snapshots", "count", Lower),
    layer("chain.durability.snapshot_bytes", "B", Lower),
    layer("chain.codec.encode_s", "s", Lower),
    layer("chain.codec.decode_s", "s", Lower),
    layer("chain.codec.block_bytes", "B", Lower),
    // The cold audit.
    layer("chain.log.open_s", "s", Lower),
    layer("fedchain.audit.replay_s", "s", Lower),
    layer("fedchain.audit.fast_sync_s", "s", Lower),
    layer("fedchain.audit.blocks_per_s", "1/s", Higher),
    layer("crypto.sha256.mib_per_s", "MiB/s", Higher),
    // The trace itself and the machine.
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("ref.kernel_s_p50", "s", Lower),
    layer("machine.nproc", "count", Higher),
    layer("machine.par_threads", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workload::WORKLOADS;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (w.name, "count")));
        for (name, unit) in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root says exactly what these
    /// tables (and the workload table) say.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Obj(pairs) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_RUN_SECONDS)
        );

        let text_of = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| (text_of(w, "name").unwrap(), text_of(w, "why").unwrap()))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, want);

        let e2e = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text_of(got, "name").as_deref(), Some(want.name));
            assert_eq!(text_of(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(
                text_of(got, "better").as_deref(),
                Some(want.better.as_str())
            );
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
        }
        let layers = doc.get("per_layer").and_then(Value::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(text_of(got, "name").as_deref(), Some(want.name));
            assert_eq!(text_of(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(
                text_of(got, "better").as_deref(),
                Some(want.better.as_str())
            );
        }
    }
}
