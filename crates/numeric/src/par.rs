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
//!   the call stays on its caller. A call site does not pick that number:
//!   it states what one item costs, in flop-equivalents, from dimensions
//!   it already holds, and [`items_per_lease`] turns the cost into the
//!   count — so a region leases a thread only for [`LEASE_FLOPS`] of
//!   work, whatever its item count. (The consensus engine's per-miner
//!   slot passes `1`: a replica is the paper's unit of parallelism and
//!   the engine cannot price a contract call.)

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

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

/// Work worth a thread of its own, in flop-equivalents (one ≈ 0.25 ns of
/// this workspace's GEMM; a 256-bit scalar modexp is ≈ 5.7·10⁴ of them). A
/// scoped-thread lease measures 40–90 µs to spawn and join, and the
/// leased thread may first have to be woken: 2²² ≈ 1 ms keeps that
/// under a tenth of what the thread is handed.
pub const LEASE_FLOPS: usize = 1 << 22;

/// The `min_per_thread` of a region whose items cost `flops_per_item`
/// each: as many items as make up [`LEASE_FLOPS`], at least one.
pub fn items_per_lease(flops_per_item: usize) -> usize {
    (LEASE_FLOPS / flops_per_item.max(1)).max(1)
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

/// Like [`par_map`] over mutable items, with an optional side task beside
/// them: returns `(side(), [f(0, &mut items[0]), f(1, &mut items[1]), …])`.
///
/// Items are *claimed* one at a time from a shared cursor, not split into
/// halves up front, and the caller runs `side` first and then joins the
/// claiming — so whichever of the side task and the items finishes first,
/// every thread of the region stays on the items that remain and none
/// waits at the join while there is work. This is the round pipeline's
/// primitive: the items are round `r + 1`'s owners (train, mask), the
/// side task is round `r`'s on-chain tail, which only the caller may run
/// (it need not be `Send`).
///
/// The determinism contract carries over unchanged: which thread claims
/// item `i` depends on the schedule, slot `i` of the result never does —
/// `f` must be a pure function of `(i, items[i])`, the side task must
/// touch nothing the items do, and nothing is reduced across them. With
/// no thread to lease the side task runs first, then the items in index
/// order, all on the caller.
///
/// Without a side task the region leases as [`par_map`] does. A side
/// task is work nothing here can price — in the pipeline, a replica's
/// contract calls — and it keeps the caller busy, so beside one the
/// items are worth a worker whatever they cost, and further workers by
/// their cost. A panic in the side task or in an item continues on the
/// caller with its own payload once every thread of the region has
/// stopped.
pub fn par_claim_mut<T, R, S, F, G>(
    items: &mut [T],
    min_per_thread: usize,
    side: Option<G>,
    f: F,
) -> (Option<S>, Vec<R>)
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
    G: FnOnce() -> S,
{
    let min = min_per_thread.max(1);
    let asked = match (&side, items.len()) {
        (_, 0) => 0,
        (None, n) => n,
        (Some(_), n) => (n + min).max(2 * min),
    };
    let (threads, _lease) = lease_threads(asked, min);
    if threads <= 1 {
        let side = side.map(|side| side());
        let results = items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
        return (side, results);
    }
    let cursor = Mutex::new(items.iter_mut().enumerate());
    let claim_all = || {
        let mut claimed = Vec::new();
        loop {
            // The guard drops with this statement, so no item runs under
            // the lock; an iterator is valid after any `next`, so a
            // poisoned lock (another item panicked) is simply taken.
            let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, item)) = next else {
                return claimed;
            };
            claimed.push((i, f(i, item)));
        }
    };
    let (side, mut claimed) = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(claim_all)).collect();
        let side = side.map(|side| side());
        let mut claimed = claim_all();
        for worker in workers {
            claimed.append(&mut join(worker));
        }
        (side, claimed)
    });
    claimed.sort_unstable_by_key(|&(i, _)| i);
    (side, claimed.into_iter().map(|(_, r)| r).collect())
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
        let (_, doubled) = par_claim_mut(&mut items, 1, None::<fn()>, |i, item| {
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
    fn claiming_beside_a_side_task_matches_sequential_for_any_thread_cap() {
        // Side task and items over disjoint state: the claimed schedule
        // must produce exactly the sequential results, in fixed positions.
        let expected_side: u64 = (0..1000u64).map(|i| i.wrapping_mul(0x9e37_79b9)).sum();
        let expected_items: Vec<u64> = (0..64u64).map(|i| i * i).collect();
        for cap in [1usize, 2, 3, 8] {
            set_max_threads(cap);
            let mut items: Vec<u64> = (0..64).collect();
            let (side, squares) = par_claim_mut(
                &mut items,
                1,
                Some(|| {
                    (0..1000u64)
                        .map(|i| i.wrapping_mul(0x9e37_79b9))
                        .sum::<u64>()
                }),
                |i, item| {
                    *item += 1;
                    (i * i) as u64
                },
            );
            assert_eq!(side, Some(expected_side), "cap={cap}");
            assert_eq!(squares, expected_items, "cap={cap}");
            assert_eq!(items, (1..=64).collect::<Vec<u64>>(), "cap={cap}");
        }
        set_max_threads(0);
    }

    #[test]
    fn side_task_owns_its_state_and_has_finished_when_the_map_returns() {
        // An `FnOnce` side task that is not `Send`: the round pipeline's
        // commit owns the chain side and runs on the caller only.
        use std::rc::Rc;
        for cap in [1usize, 2] {
            set_max_threads(cap);
            let chain: Rc<Vec<u64>> = Rc::new((0..10).collect());
            let mut owners: Vec<u64> = (10..20).collect();
            let (tip, doubled) = par_claim_mut(
                &mut owners,
                1,
                Some(move || chain.iter().sum::<u64>()),
                |_, x| *x * 2,
            );
            assert_eq!(tip, Some(45), "cap={cap}");
            assert_eq!(doubled, (10..20u64).map(|x| x * 2).collect::<Vec<u64>>());
        }
        set_max_threads(0);
    }
}
