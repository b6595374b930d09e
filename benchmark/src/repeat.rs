//! `--repeat K`: K sets of one workload and one `--seed` back to back,
//! one child process per set (as the benchmark's driver runs them), then
//! per metric the minimum, median, maximum and relative spread across
//! sets.
//!
//! This is the tool the acceptance criterion "two sets of runs of the
//! same code agree within the benchmark's own bounds" is checked with:
//! the exit code is non-zero when any end-to-end metric's spread
//! exceeds its bound, when any set reported a failed op, or when a
//! count or byte metric fails to repeat exactly.

use std::process::{Command as Process, ExitCode};

use crate::args::Args;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats;

/// Units whose values are counts of things, not measurements.
fn is_count(unit: &str) -> bool {
    matches!(unit, "count" | "B")
}

/// One set: the child's parsed result line.
fn run_set(args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Process::new(exe);
    child
        .args(["--workload", args.workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if let Some(ops) = args.ops {
        child.args(["--ops", &ops.to_string()]);
    }
    if let Some(scratch) = &args.scratch {
        child.arg("--scratch").arg(scratch);
    }
    // The child's progress lines are not repeated here; its failures
    // (stderr) pass straight through.
    let output = child
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("a set printed nothing ({})", output.status))?;
    json::parse(line).map_err(|e| format!("bad result line of a set: {e}"))
}

pub fn run(args: &Args, sets: usize) -> Result<ExitCode, String> {
    let table: Vec<(&str, &str, Option<f64>)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit, None)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, Some(m.bound)))
            .collect()
    };
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); table.len()];
    let mut ok = true;
    for set in 0..sets {
        let result = run_set(args)?;
        let failed = result.get("failed").and_then(Value::as_f64).unwrap_or(1.0);
        let attempted = result
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        println!("set {set}: {attempted} ops attempted, {failed} failed");
        ok &= failed == 0.0 && result.get("correct") == Some(&Value::Bool(true));
        for ((name, _, _), column) in table.iter().zip(&mut columns) {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("set {set} reported no {name}"))?;
            column.push(value);
        }
    }

    println!(
        "{:<44} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
        "metric", "min", "median", "max", "spread", "bound"
    );
    for ((name, unit, bound), column) in table.iter().zip(&columns) {
        let spread = stats::relative_spread(column);
        let (min, max) = column
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                (lo.min(*v), hi.max(*v))
            });
        let over_bound = bound.is_some_and(|b| spread > b);
        let drifted = is_count(unit) && min != max;
        let verdict = match (over_bound, drifted) {
            (true, _) => "  SPREAD EXCEEDS BOUND",
            (_, true) => "  COUNT DOES NOT REPEAT",
            _ => "",
        };
        ok &= !over_bound && !drifted;
        println!(
            "{name:<44} {min:>14.6} {:>14.6} {max:>14.6} {:>7.2}% {:>7}  {unit}{verdict}",
            stats::median(column),
            spread * 100.0,
            bound.map_or_else(|| "-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_bytes_are_the_exactly_repeating_units() {
        assert!(is_count("count") && is_count("B"));
        assert!(!is_count("s") && !is_count("ref") && !is_count("ratio"));
    }
}
