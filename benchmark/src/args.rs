//! Command line of the benchmark.

use std::path::PathBuf;

use crate::workload::{Workload, WORKLOADS};
use crate::DEFAULT_RUN_SECONDS;

pub const USAGE: &str = "\
usage: fl-benchmark --workload <name> [--seed <u64>] [--seconds <n>] [--trace <0|1>]
                    [--ops <n>] [--repeat <k>]
                    [--scratch <dir>] [--trace-out <file>]

  --workload   table1_train | table1_sv | sharded_1k | stream_churn
  --seed       workload seed; every op's inputs derive from it   (default 1)
  --seconds    how long the timed loop measures                  (default 25)
  --trace      0: end-to-end metrics; 1: the traced pass and per-layer metrics
  --ops        time exactly this many ops instead of --seconds
  --repeat     run K sets of the same --seed in child processes; non-zero exit
               when an end-to-end metric's spread exceeds its bound or a count
               does not repeat exactly
  --scratch    directory for op chains (default: next to the executable)
  --trace-out  where --trace 1 writes its JSONL (default: under --scratch)
";

/// Parsed command line.
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub ops: Option<u64>,
    pub trace: bool,
    pub repeat: Option<usize>,
    pub scratch: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    /// Internal: perform set-up only and print its `setup_s` (how the
    /// parent samples cold set-up more than once).
    pub setup_probe: bool,
}

pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: DEFAULT_RUN_SECONDS,
        ops: None,
        trace: false,
        repeat: None,
        scratch: None,
        trace_out: None,
        setup_probe: false,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: cannot parse {text:?}"))
        }
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(
                    Workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => args.seed = number(&flag, value("a number")?)?,
            "--seconds" => {
                args.seconds = number(&flag, value("a number")?)?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--ops" => {
                let ops: u64 = number(&flag, value("a count")?)?;
                if ops == 0 {
                    return Err("--ops must be at least 1".to_owned());
                }
                args.ops = Some(ops);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--repeat" => {
                let sets: usize = number(&flag, value("a count")?)?;
                if sets < 2 {
                    return Err("--repeat needs at least 2 sets".to_owned());
                }
                args.repeat = Some(sets);
            }
            "--scratch" => args.scratch = Some(PathBuf::from(value("a directory")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("a file")?)),
            "--setup-probe" => args.setup_probe = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse_str("--workload sharded_1k --seed 77 --seconds 25 --trace 1")
            .unwrap_or_else(|e| panic!("driver command line must parse: {e}"));
        assert_eq!(args.workload.name, "sharded_1k");
        assert_eq!((args.seed, args.seconds, args.trace), (77, 25.0, true));
        assert!(args.ops.is_none() && args.repeat.is_none());
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload table1_sv --trace 2",
            "--workload table1_sv --seconds 0",
            "--workload table1_sv --ops 0",
            "--workload table1_sv --repeat 1",
            "--workload table1_sv --seed",
            "--workload table1_sv --frobnicate",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
