//! The frozen reference kernel every timing is divided by.
//!
//! Raw timings of the *same code* on a small shared box move by tens of
//! percent between back-to-back sets, and process CPU time moves with
//! them — it is the machine, not the scheduler. Each op is therefore
//! bracketed by this kernel and reported as `op seconds ÷ mean
//! bracketing reference seconds`, a dimensionless *reference unit*
//! (`ref`).
//!
//! The kernel is a fixed amount of work in three parts, chosen so that
//! it slows down when the federation's own hot loops do:
//!
//! * a naive (strided, latency-bound) 128³ f64 GEMM;
//! * a serially dependent xorshift sweep over a 2 MiB buffer (integer
//!   pipeline, streaming stores);
//! * a vectorisable row-axpy 256³ f64 GEMM whose 1.5 MiB working set
//!   spills the private cache — the part that tracks contention for
//!   shared cache and memory bandwidth. Without it the reference moved
//!   by 14 % between a quiet and a busy spell of this box while the
//!   GEMM-heavy ops moved by 40 %; with it the two move together.
//!
//! It runs on as many threads as the workload's cap, one private lane
//! each, so a cap-2 workload is normalised by a cap-2 reference. What no
//! CPU kernel can follow is the latency of the virtual disk (`fsync`
//! medians between 0.3 and 3 ms within seconds of each other here) and
//! the cost of waking a second vCPU; both stay in the spread of the
//! fsync- and fan-out-heavy workloads.
//!
//! **Frozen:** it uses no repository code, and changing any constant or
//! loop below rebases every `*_ref_*` metric ever recorded.

use std::hint::black_box;
use std::time::Instant;

/// Naive GEMM side length: `2·N³ ≈ 4.2` MFLOP per run.
const NAIVE_N: usize = 128;
/// 2 MiB of `u64` words.
const BUF_WORDS: usize = 2 * 1024 * 1024 / 8;
/// Sweeps over the buffer per run.
const BUF_PASSES: usize = 5;
/// Row-axpy GEMM side length: `2·N³ ≈ 33.6` MFLOP per run.
const AXPY_N: usize = 256;

struct Lane {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    buf: Vec<u64>,
    state: u64,
    wide_a: Vec<f64>,
    wide_b: Vec<f64>,
    wide_c: Vec<f64>,
}

fn pattern(len: usize, step: usize, modulus: usize, scale: f64) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * step + 11) % modulus) as f64 * scale)
        .collect()
}

impl Lane {
    fn new(index: u64) -> Self {
        Self {
            a: pattern(NAIVE_N * NAIVE_N, 37, 101, 0.01),
            b: pattern(NAIVE_N * NAIVE_N, 37, 101, 0.02),
            c: vec![0.0; NAIVE_N * NAIVE_N],
            buf: (0..BUF_WORDS as u64).collect(),
            state: 0x9e37_79b9_7f4a_7c15 ^ (index + 1),
            wide_a: pattern(AXPY_N * AXPY_N, 37, 101, 0.01),
            wide_b: pattern(AXPY_N * AXPY_N, 17, 103, 0.02),
            wide_c: vec![0.0; AXPY_N * AXPY_N],
        }
    }

    fn run(&mut self) -> u64 {
        let n = NAIVE_N;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f64;
                for k in 0..n {
                    acc += self.a[i * n + k] * self.b[k * n + j];
                }
                self.c[i * n + j] = acc;
            }
        }

        let mut s = self.state;
        for _ in 0..BUF_PASSES {
            for word in &mut self.buf {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                *word = word.wrapping_add(s);
            }
        }
        self.state = s;

        let w = AXPY_N;
        self.wide_c.fill(0.0);
        for i in 0..w {
            let out = &mut self.wide_c[i * w..(i + 1) * w];
            for k in 0..w {
                let scale = self.wide_a[i * w + k];
                let row = &self.wide_b[k * w..(k + 1) * w];
                for (o, r) in out.iter_mut().zip(row) {
                    *o += scale * r;
                }
            }
        }

        s ^ self.c[n * n - 1].to_bits() ^ self.buf[BUF_WORDS / 2] ^ self.wide_c[w * w - 1].to_bits()
    }
}

/// The reference kernel with one lane per thread of the cap.
pub struct RefKernel {
    lanes: Vec<Lane>,
}

impl RefKernel {
    /// Allocates `threads` lanes (at least one).
    pub fn new(threads: usize) -> Self {
        Self {
            lanes: (0..threads.max(1) as u64).map(Lane::new).collect(),
        }
    }

    /// Runs every lane once, concurrently, and returns the wall-clock
    /// seconds until the slowest finished.
    pub fn run(&mut self) -> f64 {
        let start = Instant::now();
        let (first, rest) = self
            .lanes
            .split_first_mut()
            .expect("constructed with at least one lane");
        std::thread::scope(|scope| {
            for lane in rest {
                scope.spawn(move || black_box(lane.run()));
            }
            black_box(first.run());
        });
        start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_do_fixed_nonzero_work() {
        let mut one = RefKernel::new(1);
        let mut two = RefKernel::new(2);
        assert!(one.run() > 0.0);
        assert!(two.run() > 0.0);
        // Same lane index ⇒ same checksum stream: the work is a pure
        // function of the lane, not of timing.
        assert_eq!(Lane::new(0).run(), Lane::new(0).run());
        assert_ne!(Lane::new(0).run(), Lane::new(1).run());
    }
}
