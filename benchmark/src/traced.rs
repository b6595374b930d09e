//! The traced pass (`--trace 1`): where an op's time goes, layer by
//! layer.
//!
//! End-to-end metrics are measured with tracing off. This pass is
//! separate: half the time budget goes to the plain closed loop (raw
//! seconds of the timed ops, and the untraced baseline the overhead
//! ratio needs), then [`TRACED_OPS`] ops are traced:
//!
//! 1. the real ops at the workload's own cap, back to back, each under
//!    a root span built from the call boundaries every op records
//!    (`report` spans);
//! 2. then per traced op, at a cap above 1, the same op once more at
//!    cap 1 — the wall time coverage is measured against, since layer
//!    times only add there;
//! 3. and the replay probes of `probe.rs` at cap 1 (`probe` spans).
//!
//! Spans and counts stay in memory and are written as JSONL when the
//! pass ends. A per-layer metric is the median over the traced ops.

use std::collections::BTreeMap;
use std::path::Path;

use crate::args::Args;
use crate::metrics::PER_LAYER;
use crate::op::{run_op, OpArtefacts, OpSample};
use crate::probe::probe_op;
use crate::trace::{Source, SpanId, Tracer};
use crate::{stats, sys, Bench};

/// Ops traced per pass.
pub const TRACED_OPS: usize = 3;
/// Op indices of traced ops start here, clear of every timed op's.
const TRACED_INDEX_BASE: u64 = 1 << 40;

/// Spans of the real op, from the boundaries it recorded.
fn report_spans(
    tracer: &mut Tracer,
    name: &str,
    parent: SpanId,
    op: usize,
    s: &OpSample,
) -> SpanId {
    let t = &s.times;
    let root = tracer.record(
        name,
        Some(parent),
        op,
        Source::Report,
        t.new_start,
        t.replay_end,
    );
    let mut child = |name: &str, under: SpanId, start, end| {
        tracer.record(name, Some(under), op, Source::Report, start, end)
    };
    let federation = child("op.federation", root, t.new_start, t.run_end);
    child("op.new", federation, t.new_start, t.persist_start);
    child("op.persist_to", federation, t.persist_start, t.run_start);
    child("op.run", federation, t.run_start, t.run_end);
    let audit = child("op.audit", root, t.open_start, t.replay_end);
    child("op.open", audit, t.open_start, t.replay_start);
    child("op.replay", audit, t.replay_start, t.replay_end);
    root
}

/// Values of one traced op that do not come from summing spans.
fn op_values(
    tracer: &Tracer,
    op: usize,
    sample: &OpSample,
    cap1_wall: f64,
    art: &OpArtefacts,
    untraced_ref: f64,
) -> BTreeMap<&'static str, f64> {
    let stages = &art.report.stages;
    let mut values = BTreeMap::from([
        ("fedchain.protocol.stage_train_mask_s", stages.train_mask),
        ("fedchain.protocol.stage_assemble_s", stages.assemble),
        // Commit and evaluate together: a flat round commits inside its
        // evaluating block and reports `commit` as exactly 0.
        (
            "fedchain.protocol.stage_on_chain_s",
            stages.commit + stages.evaluate,
        ),
        ("fedchain.protocol.stage_evaluate_s", stages.evaluate),
        ("fedchain.protocol.wall_s", art.report.wall_seconds),
        (
            "fedchain.protocol.overlap_s",
            stages.total() - art.report.wall_seconds,
        ),
    ]);

    // Coverage: self time of the blocking-path probes (the structural
    // `probe.*` spans only hold glue) over the real op's wall at cap 1.
    let own = tracer.self_ns();
    let path = tracer
        .spans()
        .iter()
        .position(|s| s.op == op && s.name == "probe.path");
    let covered: u64 = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(id, s)| {
            s.op == op
                && !s.name.starts_with("probe.")
                && path.is_some_and(|p| tracer.descends_from(*id, p))
        })
        .map(|(id, _)| own[id])
        .sum();
    values.insert(
        "trace.coverage",
        if cap1_wall > 0.0 {
            covered as f64 * 1e-9 / cap1_wall
        } else {
            0.0
        },
    );
    values.insert(
        "trace.overhead_ratio",
        if untraced_ref > 0.0 {
            (sample.run_ref() + sample.audit_ref()) / untraced_ref
        } else {
            0.0
        },
    );
    values
}

/// Runs the pass and returns one value per [`PER_LAYER`] entry.
pub fn run(args: &Args, bench: &mut Bench) -> Result<Vec<f64>, String> {
    // Untraced half: the same closed loop `--trace 0` measures.
    let untraced = bench.timed_loop(args.seconds * 0.5, args.ops);
    let column = |f: fn(&OpSample) -> f64| -> Vec<f64> { untraced.iter().map(f).collect() };
    let run_s = column(|s| s.run_s);
    let untraced_ref = stats::median(&column(|s| s.run_ref() + s.audit_ref()));
    let mut reference_s: Vec<f64> = untraced.iter().flat_map(|s| s.refs).collect();

    let mut tracer = Tracer::new();
    let pass_start = std::time::Instant::now();
    let pass = tracer.record(
        "trace.pass",
        None,
        0,
        Source::Report,
        pass_start,
        pass_start,
    );
    // Per fully traced op: its index and the values that are not span sums.
    let mut per_op: Vec<(usize, BTreeMap<&'static str, f64>)> = Vec::new();

    // The real ops first, back to back like the untraced loop before
    // them: the probes below hold far more memory at once than an op
    // does and leave the allocator in a different state, which alone
    // moved later ops by 15 % on `sharded_1k`.
    let min_accuracy = bench.workload.min_accuracy;
    let mut traced = Vec::new();
    for op in 0..TRACED_OPS {
        let config = bench
            .workload
            .config(bench.seed, TRACED_INDEX_BASE + op as u64);
        let real = run_op(
            &config,
            min_accuracy,
            &bench.scratch,
            &mut bench.reference,
            true,
        );
        let what = format!("traced op {op}");
        if let Some((sample, art)) = bench.tally.note(&what, config.world_seed, real) {
            let art = art.expect("run_op keeps artefacts when asked to");
            reference_s.extend(sample.refs);
            let root = report_spans(&mut tracer, "op", pass, op, &sample);
            traced.push((op, config, sample, art, root));
        }
    }

    // Everything below runs at cap 1, where layer times add.
    numeric::par::set_max_threads(1);
    for (op, config, sample, art, root) in &traced {
        let what = format!("traced op {op}");
        let cap1_wall = if bench.cap > 1 {
            let again = run_op(
                config,
                min_accuracy,
                &bench.scratch,
                &mut bench.reference,
                false,
            );
            let again = bench
                .tally
                .note(&format!("{what} at cap 1"), config.world_seed, again);
            again.map(|(s, _)| {
                report_spans(&mut tracer, "op.cap1", pass, *op, &s);
                s.run_s + s.audit_s
            })
        } else {
            Some(sample.run_s + sample.audit_s)
        };
        // The probes belong to the traced op: a probe that disagrees
        // with the committed chain fails that op, not a new one.
        if let Err(failure) = probe_op(&mut tracer, *op, *root, config, art, &bench.scratch) {
            bench
                .tally
                .fail(&format!("{what} probe"), config.world_seed, &failure);
            continue;
        }
        let Some(cap1_wall) = cap1_wall else { continue };
        let values = op_values(&tracer, *op, sample, cap1_wall, art, untraced_ref);
        per_op.push((*op, values));
    }
    numeric::par::set_max_threads(bench.cap);
    tracer.close(pass);

    let out = args.trace_out.clone().unwrap_or_else(|| {
        bench.scratch.root().join(format!(
            "trace-{}-{}.jsonl",
            bench.workload.name, bench.seed
        ))
    });
    write_trace(&tracer, &out)?;
    println!(
        "traced {} of {TRACED_OPS} ops ({} spans) -> {}",
        per_op.len(),
        tracer.spans().len(),
        out.display()
    );

    // A value computed for the op, a count a probe took, or the summed
    // seconds of the spans the metric is named after (`x.y_s` sums spans
    // `x.y`) — the median over the traced ops.
    let median_over_ops = |name: &str| -> f64 {
        let values: Vec<f64> = per_op
            .iter()
            .map(|(op, computed)| {
                computed
                    .get(name)
                    .copied()
                    .or_else(|| tracer.count_of(*op, name))
                    .unwrap_or_else(|| tracer.seconds_of(*op, name.trim_end_matches("_s")))
            })
            .collect();
        stats::median(&values)
    };
    Ok(PER_LAYER
        .iter()
        .map(|metric| match metric.name {
            "fedchain.protocol.run_s_p50" => stats::median(&run_s),
            "fedchain.audit.audit_s_p50" => stats::median(&column(|s| s.audit_s)),
            "ref.kernel_s_p50" => stats::median(&reference_s),
            "machine.nproc" => sys::nproc() as f64,
            "machine.par_threads" => bench.cap as f64,
            name => median_over_ops(name),
        })
        .collect())
}

fn write_trace(tracer: &Tracer, out: &Path) -> Result<(), String> {
    if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
    }
    tracer
        .write_jsonl(out)
        .map_err(|e| format!("cannot write trace {}: {e}", out.display()))
}
