//! What the benchmark reads from the operating system: process CPU
//! time, peak resident memory, and the machine description. Linux
//! `/proc` only — on another system the readers return zero and the
//! metrics that depend on them say so by being zero.

use std::fs;

/// Kernel clock ticks per second `/proc/self/stat` counts in. 100 on
/// every Linux configuration this repository has run on; there is no
/// dependency-free way to ask (`sysconf` needs libc).
const CLK_TCK: f64 = 100.0;

/// Process CPU seconds so far (user + system, all threads, including
/// threads that already exited).
pub fn process_cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_ascii_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / CLK_TCK
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_ascii_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model string, for the machine block of a recorded baseline.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(nproc() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib() > 0.5);
            // Burn a little CPU so the counter is visibly monotone.
            let before = process_cpu_seconds();
            let mut x = 1u64;
            for i in 0..40_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
            std::hint::black_box(x);
            assert!(process_cpu_seconds() >= before);
        }
    }
}
