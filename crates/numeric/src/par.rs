//! Dependency-free deterministic fork-join parallelism.
//!
//! Every hot path in this workspace — powerset utility evaluation in the
//! Shapley engines, pairwise key agreement and mask expansion in secure
//! aggregation, per-owner local training — is embarrassingly parallel
//! *per index*. This module provides the one primitive they share:
//! partition an index range into contiguous chunks, run each chunk on a
//! scoped `std::thread`, and write results into pre-assigned slots.
//!
//! # Determinism contract
//!
//! The blockchain's verification-by-re-execution protocol requires every
//! miner to compute **bit-identical** results regardless of its core
//! count. All helpers here guarantee that as long as the supplied closure
//! is a *pure function of the global index* (and of `&`/`&mut` state that
//! only it touches):
//!
//! * slot `i` of the output is always `f(i, …)` — chunk boundaries move
//!   with the thread count, but never which slot a result lands in;
//! * no helper ever reduces across threads — callers combine results in
//!   index order, so floating-point rounding cannot depend on the
//!   schedule;
//! * with one thread (or below the size threshold) the closure runs on
//!   the calling thread in plain index order, and the parallel schedule
//!   produces exactly the same slot values.
//!
//! **Thread budget.** The cap is process-wide: a region leases its extra
//! threads from the `max_threads() - 1` that may be alive at once and
//! returns them when it ends, a panic included. How many it gets depends
//! on what is free at call time; slot values never do. Granted none — as
//! when nested in a region holding the budget — it runs on its caller.
//!
//! The property tests in `shapley/tests/par_determinism.rs` pin this
//! contract across thread caps 1, 2, 3 and 8, `tests/par_budget.rs` the budget.
//!
//! # Knobs
//!
//! * [`set_max_threads`] / [`max_threads`] — global cap, `0` = one thread
//!   per available core. The `FL_PAR_THREADS` environment variable, read
//!   once at first use, seeds the cap (useful for benchmarking the
//!   sequential fallback without recompiling).
//! * Every helper takes `min_per_thread`, the smallest number of items
//!   worth shipping to another thread; below `2 * min_per_thread` items
//!   the call stays sequential. It only matters where a region can be
//!   outermost: a nested one finds the budget taken and never spawns.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Global thread cap: 0 = automatic (one per core).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Caps the number of worker threads every `par_*` helper may use.
///
/// `0` restores the automatic setting (`available_parallelism`). `1`
/// forces the sequential path, which the determinism property tests use
/// to compare schedules.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The current thread cap (resolved: always `>= 1`).
pub fn max_threads() -> usize {
    let configured = MAX_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    // Resolved once: `available_parallelism` is a syscall, and the par
    // helpers sit on hot paths that may run thousands of times per
    // round. Affinity changes after startup are deliberately ignored.
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        let env = std::env::var("FL_PAR_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        if env > 0 {
            env
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    })
}

/// Extra par threads alive process-wide, leased up to `max_threads() - 1`.
static EXTRAS_ALIVE: AtomicUsize = AtomicUsize::new(0);

/// Extra threads leased to one region. `Drop` returns them — on unwind too,
/// after `thread::scope` joined — with a Release the next lease Acquires.
struct Lease(usize);

impl Drop for Lease {
    fn drop(&mut self) {
        if self.0 > 0 {
            EXTRAS_ALIVE.fetch_sub(self.0, Ordering::Release);
        }
    }
}

/// Threads for `n` items at the given granularity: the caller plus the
/// extras the budget has free, leased until the returned guard drops.
fn lease_threads(n: usize, min_per_thread: usize) -> (usize, Lease) {
    let budget = max_threads() - 1;
    let want = (n / min_per_thread.max(1)).saturating_sub(1).min(budget);
    let mut granted = 0;
    if want > 0 {
        let _ = EXTRAS_ALIVE.fetch_update(Ordering::Acquire, Ordering::Relaxed, |alive| {
            granted = want.min(budget.saturating_sub(alive));
            (granted > 0).then_some(alive + granted)
        });
    }
    (granted + 1, Lease(granted))
}

/// Joins a scoped worker; its panic continues with its own payload.
fn join<R>(worker: std::thread::ScopedJoinHandle<'_, R>) -> R {
    let joined = worker.join();
    joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Splits `slice` into `threads` contiguous chunks whose lengths differ by
/// at most one, returning `(start_index, chunk)` pairs.
fn balanced_chunks<T>(slice: &mut [T], threads: usize) -> Vec<(usize, &mut [T])> {
    let n = slice.len();
    let base = n / threads;
    let extra = n % threads;
    let mut out = Vec::with_capacity(threads);
    let mut rest = slice;
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        let (head, tail) = rest.split_at_mut(len);
        out.push((start, head));
        start += len;
        rest = tail;
    }
    out
}

/// Fills every slot of `out` with a value computed from its global index:
/// `f(start, chunk)` must set `chunk[k]` to a pure function of
/// `start + k`.
///
/// This is [`par_fill_rows`] at row width 1, its one spawn site. Runs on
/// the calling thread when `out.len() < 2 * min_per_thread` or the thread
/// cap is 1.
pub fn par_fill_with<T, F>(out: &mut [T], min_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_fill_rows(out, 1, min_per_thread, f);
}

/// Like [`par_fill_with`], but chunk boundaries always land on multiples
/// of `width`: `out` is treated as a sequence of `out.len() / width`
/// rows, and `f(first_row, rows)` receives a slice of whole rows whose
/// first row has global index `first_row`.
///
/// This is the fan-out primitive of the blocked-GEMM kernels in
/// [`crate::linalg`]: each worker owns a contiguous row panel of the
/// output matrix, and every row is a pure function of its global row
/// index, so the determinism contract of this module carries over
/// unchanged — chunk boundaries move with the thread count, row
/// contents never do.
///
/// # Panics
///
/// Panics if `width == 0` or `out.len()` is not a multiple of `width`.
pub fn par_fill_rows<T, F>(out: &mut [T], width: usize, min_rows_per_thread: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(width > 0, "row width must be positive");
    assert_eq!(
        out.len() % width,
        0,
        "buffer length {} is not a multiple of the row width {width}",
        out.len()
    );
    let rows = out.len() / width;
    let (threads, _lease) = lease_threads(rows, min_rows_per_thread);
    if threads <= 1 {
        f(0, out);
        return;
    }
    // Balanced row counts, then scaled to element ranges so every chunk
    // boundary is a row boundary.
    let base = rows / threads;
    let extra = rows % threads;
    let mut chunks = Vec::with_capacity(threads);
    let mut rest = out;
    let mut row_start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        let (head, tail) = rest.split_at_mut(len * width);
        chunks.push((row_start, head));
        row_start += len;
        rest = tail;
    }
    let (first_start, first_chunk) = chunks.remove(0);
    let f = &f;
    std::thread::scope(|scope| {
        // Spawn workers for all but the first chunk; the calling thread
        // works instead of idling at the join.
        let mut workers = Vec::with_capacity(threads - 1);
        for (start, chunk) in chunks {
            workers.push(scope.spawn(move || f(start, chunk)));
        }
        f(first_start, first_chunk);
        workers.into_iter().for_each(join);
    });
}

/// Runs two independent pipeline stages, overlapping them on two
/// threads when the budget has one free, and returns `(a(), b())`.
///
/// This is the stage-overlap primitive of the streaming round pipeline:
/// stage `a` is round `r`'s on-chain tail (evaluation + commit), stage
/// `b` is round `r + 1`'s off-chain work (training, masking, assembly).
/// The determinism contract of this module extends to it unchanged —
/// each stage must be a pure function of its *inputs*, and the two
/// stages must touch disjoint state (the caller hands each closure its
/// own `&mut` world). Under those conditions the overlapped schedule
/// produces exactly the values of the sequential `let ra = a(); let rb
/// = b();` order for any thread count:
///
/// * results land in fixed positions — `a`'s in `.0`, `b`'s in `.1` —
///   never in completion order;
/// * nothing is reduced across the stages; the caller combines the two
///   results itself, after both have finished;
/// * with no thread to lease (cap 1, or the budget is held elsewhere)
///   the stages run sequentially (`a` first) on the calling thread, and
///   the overlapped schedule must be bit-identical to that order.
///
/// Stage `b` runs on the spawned thread and `a` on the caller, so a
/// panic in either propagates to the caller once both stages have
/// stopped (scoped threads join before unwinding continues).
pub fn par_overlap<RA, RB, A, B>(a: A, b: B) -> (RA, RB)
where
    RA: Send,
    RB: Send,
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
{
    let (threads, _lease) = lease_threads(2, 1);
    if threads <= 1 {
        let ra = a();
        let rb = b();
        return (ra, rb);
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(b);
        let ra = a();
        (ra, join(handle))
    })
}

/// `(0..n).map(f).collect()`, computed on up to [`max_threads`] threads.
///
/// `f` must be a pure function of the index for the determinism contract
/// to hold.
pub fn par_map_indices<R, F>(n: usize, min_per_thread: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let (threads, _lease) = lease_threads(n, min_per_thread);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let base = n / threads;
    let extra = n % threads;
    let mut bounds = Vec::with_capacity(threads);
    let mut start = 0;
    for t in 0..threads {
        let len = base + usize::from(t < extra);
        bounds.push(start..start + len);
        start += len;
    }
    let f = &f;
    let mut parts: Vec<Vec<R>> = std::thread::scope(|scope| {
        // Spawn workers for all but the first range; the calling thread
        // computes the first range instead of idling at the join.
        let handles: Vec<_> = bounds[1..]
            .iter()
            .cloned()
            .map(|range| scope.spawn(move || range.map(f).collect::<Vec<R>>()))
            .collect();
        let first: Vec<R> = bounds[0].clone().map(f).collect();
        let mut parts = Vec::with_capacity(threads);
        parts.push(first);
        parts.extend(handles.into_iter().map(join));
        parts
    });
    let mut out = Vec::with_capacity(n);
    for part in &mut parts {
        out.append(part);
    }
    out
}

/// `items.iter().enumerate().map(|(i, x)| f(i, x)).collect()` in parallel.
pub fn par_map<T, R, F>(items: &[T], min_per_thread: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indices(items.len(), min_per_thread, |i| f(i, &items[i]))
}

/// Like [`par_map`] over mutable items: each element is visited exactly
/// once with exclusive access, results collected in index order.
pub fn par_map_mut<T, R, F>(items: &mut [T], min_per_thread: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let (threads, _lease) = lease_threads(n, min_per_thread);
    if threads <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let mut chunks = balanced_chunks(items, threads);
    let (first_start, first_chunk) = chunks.remove(0);
    let f = &f;
    let mut results: Vec<Vec<R>> = std::thread::scope(|scope| {
        // Spawn workers for all but the first chunk; the calling thread
        // works its own chunk instead of idling at the join.
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|(start, chunk)| {
                scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(k, item)| f(start + k, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        let first: Vec<R> = first_chunk
            .iter_mut()
            .enumerate()
            .map(|(k, item)| f(first_start + k, item))
            .collect();
        let mut results = Vec::with_capacity(threads);
        results.push(first);
        results.extend(handles.into_iter().map(join));
        results
    });
    let mut out = Vec::with_capacity(n);
    for part in &mut results {
        out.append(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_matches_sequential_for_any_thread_cap() {
        let n = 1000;
        let mut expected = vec![0u64; n];
        for (i, v) in expected.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x9e37_79b9);
        }
        for cap in [1usize, 2, 3, 8] {
            set_max_threads(cap);
            let mut out = vec![0u64; n];
            par_fill_with(&mut out, 1, |start, chunk| {
                for (k, slot) in chunk.iter_mut().enumerate() {
                    *slot = ((start + k) as u64).wrapping_mul(0x9e37_79b9);
                }
            });
            assert_eq!(out, expected, "cap={cap}");
        }
        set_max_threads(0);
    }

    #[test]
    fn map_indices_preserves_order() {
        set_max_threads(4);
        let out = par_map_indices(100, 1, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        set_max_threads(0);
    }

    #[test]
    fn map_mut_visits_every_item_once() {
        set_max_threads(3);
        let mut items: Vec<u32> = (0..50).collect();
        let doubled = par_map_mut(&mut items, 1, |i, item| {
            *item += 1;
            (i as u32, *item * 2)
        });
        assert_eq!(items, (1..=50).collect::<Vec<u32>>());
        for (i, (idx, d)) in doubled.iter().enumerate() {
            assert_eq!(*idx as usize, i);
            assert_eq!(*d, (i as u32 + 1) * 2);
        }
        set_max_threads(0);
    }

    #[test]
    fn fill_rows_matches_sequential_for_any_thread_cap() {
        let (rows, width) = (37, 5);
        let fill = |start: usize, chunk: &mut [u64]| {
            for (k, slot) in chunk.iter_mut().enumerate() {
                let row = start + k / 5;
                let col = k % 5;
                *slot = (row as u64) * 100 + col as u64;
            }
        };
        let mut expected = vec![0u64; rows * width];
        fill(0, &mut expected);
        for cap in [1usize, 2, 3, 8] {
            set_max_threads(cap);
            let mut out = vec![0u64; rows * width];
            par_fill_rows(&mut out, width, 1, |start, chunk| fill(start, chunk));
            assert_eq!(out, expected, "cap={cap}");
        }
        set_max_threads(0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn fill_rows_rejects_ragged_buffer() {
        let mut out = vec![0u8; 7];
        par_fill_rows(&mut out, 3, 1, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn fill_rows_rejects_zero_width() {
        let mut out = vec![0u8; 4];
        par_fill_rows(&mut out, 0, 1, |_, _| {});
    }

    #[test]
    fn below_threshold_stays_sequential() {
        // 3 items at min 16 per thread: must not spawn (observable only
        // through correctness here, but exercises the fallback branch).
        let out = par_map(&[1, 2, 3], 16, |_, x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn empty_inputs() {
        let out: Vec<u8> = par_map_indices(0, 1, |_| unreachable!());
        assert!(out.is_empty());
        let mut empty: [u8; 0] = [];
        par_fill_with(&mut empty, 1, |_, _| {});
    }

    #[test]
    fn max_threads_resolves_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn overlap_matches_sequential_for_any_thread_cap() {
        // Two stages over disjoint state: the overlapped schedule must
        // produce exactly the sequential results, in fixed positions.
        let expected_a: u64 = (0..1000u64).map(|i| i.wrapping_mul(0x9e37_79b9)).sum();
        let expected_b: Vec<u64> = (0..64u64).map(|i| i * i).collect();
        for cap in [1usize, 2, 8] {
            set_max_threads(cap);
            let (a, b) = par_overlap(
                || {
                    (0..1000u64)
                        .map(|i| i.wrapping_mul(0x9e37_79b9))
                        .sum::<u64>()
                },
                || (0..64u64).map(|i| i * i).collect::<Vec<u64>>(),
            );
            assert_eq!(a, expected_a, "cap={cap}");
            assert_eq!(b, expected_b, "cap={cap}");
        }
        set_max_threads(0);
    }

    #[test]
    fn overlap_stage_a_completion_is_visible_to_the_caller_combine() {
        // Whichever schedule runs, both stages have fully completed by
        // the time par_overlap returns: the caller's combine step reads
        // a's side effects through b's result only after the join.
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;
        let a_done = Arc::new(AtomicBool::new(false));
        let fa = a_done.clone();
        for cap in [1usize, 2] {
            set_max_threads(cap);
            fa.store(false, Ordering::SeqCst);
            let fa2 = fa.clone();
            let ((), sum) = par_overlap(
                move || fa2.store(true, Ordering::SeqCst),
                || (0..100u32).sum::<u32>(),
            );
            assert!(a_done.load(Ordering::SeqCst), "cap={cap}");
            assert_eq!(sum, 4950, "cap={cap}");
        }
        set_max_threads(0);
    }

    #[test]
    fn overlap_moves_owned_state_into_each_stage() {
        // FnOnce closures: each stage owns its world — the pattern the
        // round pipeline relies on (commit owns the chain side, prepare
        // owns the owners).
        let chain: Vec<u64> = (0..10).collect();
        let owners: Vec<u64> = (10..20).collect();
        let (a, b) = par_overlap(
            move || chain.iter().sum::<u64>(),
            move || owners.iter().map(|x| x * 2).collect::<Vec<u64>>(),
        );
        assert_eq!(a, 45);
        assert_eq!(b, (10..20u64).map(|x| x * 2).collect::<Vec<u64>>());
    }
}
