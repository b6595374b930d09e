//! The repository's benchmark: one federation, end to end.
//!
//! One *op* is one whole federation as a data owner and then an auditor
//! experience it (see `op.rs`). A run of this program measures one
//! workload in a closed loop with one client — the next federation
//! starts when the previous one is certified — and prints every metric
//! by name with its unit; the last line of standard output is one JSON
//! object `{correct, attempted, failed, metrics}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` runs the traced pass and reports
//! the per-layer metrics (`traced.rs`). See `README.md`.

mod args;
mod json;
mod metrics;
mod op;
mod probe;
mod refkernel;
mod repeat;
mod stats;
mod sys;
mod trace;
mod traced;
mod workload;

use std::path::PathBuf;
use std::process::{Command as Process, ExitCode};
use std::time::Instant;

use fl_chain::hash::Hash32;

use args::Args;
use json::Value;
use metrics::{END_TO_END, PER_LAYER};
use op::{run_op, CheckFailure, OpSample, Scratch};
use refkernel::RefKernel;
use workload::{Workload, WARMUP_INDEX};

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
pub const DEFAULT_RUN_SECONDS: f64 = 25.0;
/// Cold set-ups sampled per run (this process plus child processes);
/// `setup_s` is their median.
const SETUP_SAMPLES: usize = 3;
/// Reference-kernel runs before the first op, so the first bracket is
/// not the one that faults the lanes in.
const REFERENCE_WARMUPS: usize = 5;
/// `setup_s` is set-up seconds on a box where one reference-kernel run
/// takes this long (about what it takes on the box the first numbers
/// were recorded on): wall seconds × this ÷ the reference seconds
/// measured during set-up. Frozen with the kernel.
const REFERENCE_NOMINAL_S: f64 = 0.012;

/// Ops attempted and failed so far, and the first failure.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    first: Option<String>,
}

impl Tally {
    /// Counts one attempted op and, if it failed, the failure.
    pub fn note<T>(
        &mut self,
        what: &str,
        world_seed: u64,
        result: Result<T, CheckFailure>,
    ) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|failure| self.fail(what, world_seed, &failure))
            .ok()
    }

    /// Success only when no op failed.
    fn exit_code(&self) -> ExitCode {
        if self.failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }

    /// Marks an already-counted op as failed. The first failure is
    /// printed, with the failing check's name and the op's seed.
    pub fn fail(&mut self, what: &str, world_seed: u64, failure: &CheckFailure) {
        self.failed += 1;
        if self.first.is_none() {
            let line = format!(
                "FAILED {what} (world_seed {world_seed}): {}: {}",
                failure.check, failure.detail
            );
            eprintln!("{line}");
            self.first = Some(line);
        }
    }
}

/// Everything a run sets up before its first timed op.
pub struct Bench {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Thread cap of the timed ops (the workload's, clamped to nproc).
    pub cap: usize,
    pub scratch: Scratch,
    pub reference: RefKernel,
    pub tally: Tally,
    /// Tip digest of the warm-up op, for the thread-cap cross-check.
    warmup_tip: Option<Hash32>,
    /// Reference-kernel seconds during set-up: the mean of the warm-up
    /// op's brackets.
    setup_reference_s: f64,
}

fn default_scratch_root() -> PathBuf {
    // Next to the executable: inside the build directory, hence inside
    // the checkout and ignored by git wherever the build directory is.
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("scratch")))
        .unwrap_or_else(|| PathBuf::from("target/scratch"))
}

impl Bench {
    /// Set-up: scratch directory, thread cap, reference-kernel warm-up,
    /// and the untimed warm-up op that fills the process-wide lazies
    /// (the memoized DH group contexts).
    fn set_up(args: &Args) -> Result<Self, String> {
        let workload = args.workload;
        let cap = workload.cap.min(sys::nproc()).max(1);
        numeric::par::set_max_threads(cap);
        let root = args.scratch.clone().unwrap_or_else(default_scratch_root);
        let scratch = Scratch::new(root.clone())
            .map_err(|e| format!("cannot create scratch directory {}: {e}", root.display()))?;
        let mut reference = RefKernel::new(cap);
        let mut setup_reference_s = 0.0;
        for _ in 0..REFERENCE_WARMUPS {
            setup_reference_s = reference.run();
        }
        let mut bench = Self {
            workload,
            seed: args.seed,
            cap,
            scratch,
            reference,
            tally: Tally::default(),
            warmup_tip: None,
            setup_reference_s,
        };
        if let Some(warm) = bench.op("warm-up op", WARMUP_INDEX) {
            bench.warmup_tip = Some(warm.tip);
            bench.setup_reference_s = warm.refs.iter().sum::<f64>() / warm.refs.len() as f64;
        }
        Ok(bench)
    }

    /// Runs op `index` at the current cap and tallies it.
    pub fn op(&mut self, what: &str, index: u64) -> Option<OpSample> {
        let config = self.workload.config(self.seed, index);
        let result = run_op(
            &config,
            self.workload.min_accuracy,
            &self.scratch,
            &mut self.reference,
            false,
        )
        .map(|(sample, _)| sample);
        self.tally.note(what, config.world_seed, result)
    }

    /// The closed loop: ops `0, 1, …` back to back until `seconds` have
    /// passed (or exactly `ops` of them).
    pub fn timed_loop(&mut self, seconds: f64, ops: Option<u64>) -> Vec<OpSample> {
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut index = 0u64;
        loop {
            let done = match ops {
                Some(count) => index >= count,
                None => start.elapsed().as_secs_f64() >= seconds,
            };
            if done {
                break;
            }
            samples.extend(self.op(&format!("op {index}"), index));
            index += 1;
        }
        samples
    }

    /// Thread-cap determinism cross-check: the warm-up op again at the
    /// *other* cap (1 ↔ 2) must reach a bit-identical tip digest; a
    /// mismatch is a failed op.
    pub fn cross_check(&mut self) {
        let other = if self.cap == 1 { 2 } else { 1 };
        let config = self.workload.config(self.seed, WARMUP_INDEX);
        numeric::par::set_max_threads(other);
        let result = run_op(
            &config,
            self.workload.min_accuracy,
            &self.scratch,
            &mut self.reference,
            false,
        );
        numeric::par::set_max_threads(self.cap);
        let result = result.and_then(|(sample, _)| match self.warmup_tip {
            Some(warm) if warm != sample.tip => Err(CheckFailure::new(
                "thread_cap_tip_digest",
                format!(
                    "cap {} tip {} != cap {other} tip {}",
                    self.cap,
                    warm.to_hex(),
                    sample.tip.to_hex()
                ),
            )),
            _ => Ok(()),
        });
        self.tally.note(
            &format!("cap-{other} cross-check"),
            config.world_seed,
            result,
        );
    }
}

/// Samples cold set-up in child processes: each does exactly what
/// [`Bench::set_up`] did here and prints its `setup_s`.
fn child_setups(args: &Args, bench: &mut Bench) -> Vec<f64> {
    let Ok(exe) = std::env::current_exe() else {
        return Vec::new();
    };
    let mut samples = Vec::new();
    for _ in 1..SETUP_SAMPLES {
        let output = Process::new(&exe)
            .args(["--setup-probe", "--workload", bench.workload.name])
            .args(["--seed", &args.seed.to_string()])
            .arg("--scratch")
            .arg(bench.scratch.root())
            .output();
        let parsed = output
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| {
                text.lines()
                    .last()
                    .and_then(|line| line.strip_prefix("setup_s "))
                    .and_then(|v| v.trim().parse::<f64>().ok())
            });
        let world_seed = bench.workload.config(args.seed, WARMUP_INDEX).world_seed;
        let result = parsed.ok_or_else(|| {
            CheckFailure::new(
                "setup_probe",
                "child set-up process failed or printed no time",
            )
        });
        samples.extend(bench.tally.note("set-up probe", world_seed, result));
    }
    samples
}

fn end_to_end_metrics(
    bench: &Bench,
    setup_s: f64,
    peak_rss_mib: f64,
    samples: &[OpSample],
) -> Vec<f64> {
    let config = bench.workload.config(bench.seed, 0);
    let owner_rounds = (config.num_owners as u64 * config.rounds) as f64;
    let column = |f: fn(&OpSample) -> f64| -> Vec<f64> { samples.iter().map(f).collect() };
    END_TO_END
        .iter()
        .map(|metric| match metric.name {
            "setup_s" => setup_s,
            "run_ref_p25" => stats::lower_quartile(&column(OpSample::run_ref)),
            "audit_ref_p25" => stats::lower_quartile(&column(OpSample::audit_ref)),
            "cpu_ref_p25" => stats::lower_quartile(&column(OpSample::cpu_ref)),
            "wal_bytes_per_owner_round" => {
                stats::median(&column(|s| s.wal_bytes as f64)) / owner_rounds
            }
            "peak_rss_mib" => peak_rss_mib,
            other => unreachable!("end-to-end metric {other} has no definition"),
        })
        .collect()
}

/// Prints every metric by name with its unit, then the result line.
fn report(tally: &Tally, rows: &[(&str, &str, f64)]) {
    for (name, unit, value) in rows {
        println!("{name:<44} {value:>20.9} {unit}");
    }
    let metrics = Value::obj(rows.iter().map(|(name, unit, value)| {
        (
            *name,
            Value::obj([("value", Value::Num(*value)), ("unit", Value::str(*unit))]),
        )
    }));
    let line = Value::obj([
        ("correct", Value::Bool(tally.failed == 0)),
        ("attempted", Value::Num(tally.attempted as f64)),
        ("failed", Value::Num(tally.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
}

fn run(args: &Args, process_start: Instant) -> Result<ExitCode, String> {
    if let Some(sets) = args.repeat {
        return repeat::run(args, sets);
    }
    let mut bench = Bench::set_up(args)?;
    let raw_setup_s = process_start.elapsed().as_secs_f64();
    let own_setup_s = raw_setup_s * REFERENCE_NOMINAL_S / bench.setup_reference_s;
    if args.setup_probe {
        println!("setup_s {own_setup_s}");
        return Ok(bench.tally.exit_code());
    }
    println!(
        "workload {} seed {} cap {} (nproc {}, {}) scratch {}; set-up took {raw_setup_s:.4} s at {:.5} s per reference run",
        bench.workload.name,
        bench.seed,
        bench.cap,
        sys::nproc(),
        sys::cpu_model(),
        bench.scratch.root().display(),
        bench.setup_reference_s,
    );

    if args.trace {
        let values = traced::run(args, &mut bench)?;
        bench.cross_check();
        let rows: Vec<_> = PER_LAYER
            .iter()
            .zip(&values)
            .map(|(m, v)| (m.name, m.unit, *v))
            .collect();
        report(&bench.tally, &rows);
    } else {
        let mut setups = vec![own_setup_s];
        setups.extend(child_setups(args, &mut bench));
        let samples = bench.timed_loop(args.seconds, args.ops);
        // Before the cross-check: that runs at a cap the workload does
        // not have, and at cap 2 its threads' allocator arenas alone add
        // 2 - 5 MiB to a cap-1 workload's peak.
        let peak_rss_mib = sys::peak_rss_mib();
        bench.cross_check();
        println!(
            "ops {} timed, {} attempted, {} failed; raw run p50 {:.4} s, audit p50 {:.4} s, reference p50 {:.5} s",
            samples.len(),
            bench.tally.attempted,
            bench.tally.failed,
            stats::median(&samples.iter().map(|s| s.run_s).collect::<Vec<_>>()),
            stats::median(&samples.iter().map(|s| s.audit_s).collect::<Vec<_>>()),
            stats::median(&samples.iter().flat_map(|s| s.refs).collect::<Vec<_>>()),
        );
        let values = end_to_end_metrics(&bench, stats::median(&setups), peak_rss_mib, &samples);
        let rows: Vec<_> = END_TO_END
            .iter()
            .zip(&values)
            .map(|(m, v)| (m.name, m.unit, *v))
            .collect();
        report(&bench.tally, &rows);
    }
    Ok(bench.tally.exit_code())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match args::parse(std::env::args().skip(1)) {
        Ok(args) => run(&args, process_start).unwrap_or_else(|message| {
            eprintln!("fl-benchmark: {message}");
            ExitCode::from(2)
        }),
        Err(message) => {
            eprintln!("fl-benchmark: {message}\n\n{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `--ops 2` smoke of the smallest workload: set-up, two timed ops,
    /// the cross-check — every output check passes and every
    /// end-to-end metric comes out positive.
    #[test]
    fn two_op_smoke_of_the_smallest_workload_passes_all_checks() {
        let args = args::parse(
            "--workload table1_train --seed 3 --ops 2"
                .split_whitespace()
                .map(str::to_owned),
        )
        .expect("smoke command line parses");
        let mut bench = Bench::set_up(&args).expect("set-up");
        let samples = bench.timed_loop(args.seconds, args.ops);
        bench.cross_check();
        assert_eq!(samples.len(), 2);
        assert_eq!((bench.tally.attempted, bench.tally.failed), (4, 0));
        assert!(samples.iter().all(|s| s.blocks == 4));
        // Different op seeds, same footprint; same seed, same chain.
        assert_eq!(samples[0].wal_bytes, samples[1].wal_bytes);
        assert_ne!(samples[0].tip, samples[1].tip);
        let values = end_to_end_metrics(&bench, 0.5, sys::peak_rss_mib(), &samples);
        assert!(
            values.iter().all(|v| v.is_finite() && *v > 0.0),
            "{values:?}"
        );
        // Scratch hygiene: every op directory is gone again.
        let left = std::fs::read_dir(bench.scratch.root())
            .unwrap()
            .flatten()
            .filter(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.ends_with(&format!("-{}", std::process::id()))
                    || name.contains(&format!("-{}-", std::process::id()))
            })
            .count();
        assert_eq!(left, 0);
    }

    #[test]
    fn a_failing_check_is_tallied_with_its_name_and_leaves_no_directory() {
        let scratch = Scratch::new(default_scratch_root().join("failing-check")).unwrap();
        let mut reference = RefKernel::new(1);
        let config = workload::WORKLOADS[0].config(3, 0);
        // An accuracy floor no model reaches: the op must fail that
        // check, and its chain directory must still be removed.
        let result = run_op(&config, 1.5, &scratch, &mut reference, false);
        let mut tally = Tally::default();
        assert!(tally.note("op 0", config.world_seed, result).is_none());
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert!(tally.first.as_deref().unwrap().contains("final_accuracy"));
        assert!(tally
            .first
            .as_deref()
            .unwrap()
            .contains(&config.world_seed.to_string()));
        assert_eq!(std::fs::read_dir(scratch.root()).unwrap().count(), 0);
        let _ = std::fs::remove_dir_all(scratch.root());
    }
}
