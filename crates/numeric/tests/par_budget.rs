//! The thread budget of `numeric::par`, pinned.
//!
//! The budget is process-global, so these tests live in their own
//! binary — a suite that fans out beside them would take threads they
//! count — and serialise on one mutex inside it.

use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use numeric::par;

static BUDGET: Mutex<()> = Mutex::new(());

/// One test at a time; a `should_panic` test poisons the mutex on purpose.
fn serial() -> MutexGuard<'static, ()> {
    BUDGET.lock().unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    /// How many probed closure bodies this thread is inside.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Counts the threads that are inside a probed closure body at once — a
/// thread nested three bodies deep counts once — and remembers every
/// thread it saw.
#[derive(Default)]
struct Probe {
    live: AtomicUsize,
    high_water: AtomicUsize,
    seen: Mutex<HashSet<ThreadId>>,
}

impl Probe {
    fn enter<R>(&self, body: impl FnOnce() -> R) -> R {
        let outermost = DEPTH.with(|d| d.replace(d.get() + 1)) == 0;
        if outermost {
            let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
            self.high_water.fetch_max(now, Ordering::SeqCst);
            let mut seen = self.seen.lock().expect("no probed body panics");
            seen.insert(std::thread::current().id());
        }
        let result = body();
        DEPTH.with(|d| d.set(d.get() - 1));
        if outermost {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
        result
    }

    fn threads_seen(&self) -> usize {
        self.seen.lock().expect("no probed body panics").len()
    }
}

/// Enough floating-point work per leaf (tens of microseconds) for leaves
/// on different threads to overlap in time.
fn leaf(i: usize, j: usize, stage: usize) -> f64 {
    let seed = (i * 64 + j * 2 + stage) as f64;
    (0..2_000).fold(seed, |acc, k| (acc + k as f64).sin() + seed)
}

/// Three regions deep: `par_map` → `par_map_indices` → `par_claim_mut`
/// (one item beside a side task), every closure body probed. Returns the
/// bit patterns of all leaves.
fn nested(probe: &Probe, outer: usize, inner: usize) -> Vec<Vec<(Option<u64>, u64)>> {
    let items: Vec<usize> = (0..outer).collect();
    par::par_map(&items, 1, |_, &i| {
        probe.enter(|| {
            par::par_map_indices(inner, 1, |j| {
                probe.enter(|| {
                    let (a, b) = par::par_claim_mut(
                        &mut [1usize],
                        1,
                        Some(|| probe.enter(|| leaf(i, j, 0))),
                        |_, &mut stage| probe.enter(|| leaf(i, j, stage)),
                    );
                    (a.map(f64::to_bits), b[0].to_bits())
                })
            })
        })
    })
}

/// The threads a three-item region runs on when each item may have its
/// own: the caller plus what the budget grants.
fn threads_granted_to_three_items() -> usize {
    let probe = Probe::default();
    par::par_map_indices(3, 1, |_| probe.enter(|| ()));
    probe.threads_seen()
}

#[test]
fn live_threads_never_exceed_the_cap_at_any_depth() {
    let _serial = serial();
    for cap in [1usize, 2, 3, 8] {
        par::set_max_threads(cap);
        let probe = Probe::default();
        nested(&probe, 6, 5);
        let high_water = probe.high_water.load(Ordering::SeqCst);
        assert!(
            high_water <= cap,
            "cap {cap}: {high_water} threads inside par closures at once"
        );
        if cap <= 2 {
            // The outer region holds the whole budget until it ends, so
            // no nested region is granted a thread of its own: the
            // caller and at most one worker, however many items there are.
            assert!(
                probe.threads_seen() <= cap,
                "cap {cap}: closures ran on {} distinct threads",
                probe.threads_seen()
            );
        }
    }
    par::set_max_threads(0);
}

#[test]
fn nested_results_are_bit_identical_at_every_cap() {
    let _serial = serial();
    par::set_max_threads(1);
    let sequential = nested(&Probe::default(), 5, 7);
    for cap in [2usize, 3, 8] {
        par::set_max_threads(cap);
        assert_eq!(nested(&Probe::default(), 5, 7), sequential, "cap {cap}");
    }
    par::set_max_threads(0);
}

/// The message a panic payload carries, as `should_panic` reads it.
fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(other) => (*other.downcast::<&'static str>().expect("a message")).to_owned(),
    }
}

#[test]
fn a_panicking_worker_returns_its_lease_and_keeps_its_message() {
    let _serial = serial();
    par::set_max_threads(3);
    assert_eq!(threads_granted_to_three_items(), 3);
    // Outer and nested regions each lease a thread while one is free;
    // item (1, 1) is never the top-level caller's, so its payload crosses
    // one join or two and every lease on the way unwinds.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        par::par_map_indices(2, 1, |i| {
            par::par_map_indices(2, 1, |j| {
                assert!((i, j) != (1, 1), "nested worker ({i}, {j}) gave up");
                i + j
            })
        })
    }));
    let payload = caught.expect_err("item (1, 1) panics");
    assert_eq!(message(payload), "nested worker (1, 1) gave up");
    assert_eq!(
        threads_granted_to_three_items(),
        3,
        "the unwound regions must have returned their threads"
    );
    par::set_max_threads(0);
}

#[test]
fn every_helper_re_raises_the_payload_of_its_second_chunk() {
    let _serial = serial();
    par::set_max_threads(2);
    // Two items at one per thread: item 1 is the spawned worker's.
    let second = |i: usize| assert!(i != 1, "chunk of item {i} gave up");
    let regions: [(&str, &dyn Fn()); 4] = [
        ("par_fill_with", &|| {
            par::par_fill_with(&mut [0u8; 2], 1, |start, _| second(start))
        }),
        ("par_fill_rows", &|| {
            par::par_fill_rows(&mut [0u8; 6], 3, 1, |row, _| second(row))
        }),
        ("par_map_indices", &|| {
            par::par_map_indices(2, 1, second);
        }),
        ("par_claim_mut", &|| {
            par::par_claim_mut(&mut [0u8; 2], 1, None::<fn()>, |i, _| second(i));
        }),
    ];
    for (helper, region) in regions {
        let payload = catch_unwind(AssertUnwindSafe(region)).expect_err(helper);
        assert_eq!(message(payload), "chunk of item 1 gave up", "{helper}");
    }
    par::set_max_threads(0);
}

#[test]
#[should_panic(expected = "item 7 is the second chunk's")]
fn should_panic_sees_the_workers_own_message_at_cap_two() {
    let _serial = serial();
    par::set_max_threads(2);
    // Items 5..10 are the spawned worker's chunk. (The cap stays at 2:
    // every test here sets its own.)
    par::par_map_indices(10, 1, |i| assert!(i != 7, "item {i} is the second chunk's"));
}

#[test]
fn a_region_leases_for_work_not_for_items() {
    let _serial = serial();
    // Eight items make up a lease: a thread is worth leasing once each
    // side of the split has one — sixteen items, whatever the cap.
    let per_lease = par::items_per_lease(par::LEASE_FLOPS / 8);
    assert_eq!(per_lease, 8);
    assert_eq!(par::items_per_lease(0), par::LEASE_FLOPS);
    assert_eq!(par::items_per_lease(usize::MAX), 1);
    for cap in [2usize, 3, 8] {
        par::set_max_threads(cap);
        for (items, threads) in [(7usize, 1usize), (15, 1), (16, 2)] {
            let probe = Probe::default();
            par::par_map_indices(items, per_lease, |_| probe.enter(|| ()));
            assert_eq!(probe.threads_seen(), threads, "cap {cap}, {items} items");
        }
        // The claiming map alone follows the same rule; beside a side
        // task — unpriced work that keeps the caller busy — four items
        // are worth a worker.
        let probe = Probe::default();
        par::par_claim_mut(&mut [0u8; 15], per_lease, None::<fn()>, |_, _| {
            probe.enter(|| ())
        });
        assert_eq!(probe.threads_seen(), 1, "cap {cap}, no side task");
        let (probe, arrived) = (Probe::default(), AtomicUsize::new(0));
        par::par_claim_mut(&mut [0u8; 4], per_lease, Some(|| ()), |_, _| {
            probe.enter(|| meet(&arrived))
        });
        assert_eq!(probe.threads_seen(), 2, "cap {cap}, beside a side task");
    }
    par::set_max_threads(0);
}

/// Holds the first two arrivals until both are there (or five seconds
/// have passed), so two threads that can both claim must both be seen.
fn meet(arrived: &AtomicUsize) {
    if arrived.fetch_add(1, Ordering::SeqCst) < 2 {
        let deadline = Instant::now() + Duration::from_secs(5);
        while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }
}

#[test]
fn claiming_visits_every_item_once_and_the_caller_joins_after_its_side_task() {
    let _serial = serial();
    for cap in [1usize, 2, 3, 8] {
        par::set_max_threads(cap);
        let probe = Probe::default();
        let arrived = AtomicUsize::new(0);
        let mut visits = vec![0u32; 40];
        let (side, slots) =
            par::par_claim_mut(&mut visits, 1, Some(|| "side task done"), |i, visit| {
                probe.enter(|| {
                    if cap > 1 {
                        meet(&arrived);
                    }
                    *visit += 1;
                    i * i
                })
            });
        assert_eq!(side, Some("side task done"));
        assert_eq!(
            slots,
            (0..40).map(|i| i * i).collect::<Vec<_>>(),
            "cap {cap}"
        );
        assert_eq!(visits, vec![1; 40], "cap {cap}");
        let high_water = probe.high_water.load(Ordering::SeqCst);
        assert!(
            high_water <= cap,
            "cap {cap}: {high_water} threads in items"
        );
        if cap == 2 {
            // The worker and the caller, whose side task ended early.
            assert_eq!(probe.threads_seen(), 2);
        }
    }
    par::set_max_threads(0);
}

#[test]
fn claiming_re_raises_the_side_tasks_and_a_workers_own_payload() {
    let _serial = serial();
    par::set_max_threads(2);
    let caller = std::thread::current().id();

    let side = catch_unwind(AssertUnwindSafe(|| {
        par::par_claim_mut(
            &mut [0u8; 8],
            1,
            Some(|| panic!("the side task gave up")),
            |i, _| i,
        );
    }));
    assert_eq!(message(side.expect_err("side")), "the side task gave up");
    assert_eq!(threads_granted_to_three_items(), 2, "lease returned");

    // The side task holds the caller back until the worker is inside an
    // item, so the panic is the worker's and crosses the join.
    let worker_in = AtomicUsize::new(0);
    let worker = catch_unwind(AssertUnwindSafe(|| {
        par::par_claim_mut(&mut [0u8; 8], 1, Some(|| meet(&worker_in)), |i, _| {
            if std::thread::current().id() != caller {
                meet(&worker_in);
                panic!("the worker gave up on item {i}");
            }
        });
    }));
    assert_eq!(
        message(worker.expect_err("worker")),
        "the worker gave up on item 0"
    );
    assert_eq!(threads_granted_to_three_items(), 2, "lease returned");
    par::set_max_threads(0);
}
