//! Heap allocations per commit of each shape, pinned as upper bounds, the
//! way `log_volume.rs` pins the bytes.
//!
//! A counting global allocator counts every `alloc`, `alloc_zeroed` and
//! `realloc` made by the thread that runs the commits while it is
//! counting, and nothing any other thread makes. On the default `Bank`
//! (8,192 accounts, 8 branches, no sync) one thread runs
//! `batch_deposit_op` commits at read committed: 2,000 to warm up, then
//! 20,000 counted. A statement that starts copying definitions or
//! collecting into fresh vectors again fails here, not only as a slower
//! benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use txview_common::rng::Rng;
use txview_engine::IsolationLevel;
use txview_workload::bank::{Bank, BankConfig};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARM_UP: u64 = 2_000;
const COUNTED: u64 = 20_000;

/// The counters of the cost vector beside the allocations: lock grants,
/// page fetches (hits and misses), and WAL records and bytes.
const COUNTERS: [&str; 5] =
    ["lock.acquired", "pool.hits", "pool.misses", "wal.appended_records", "wal.appended_bytes"];

/// Over the counted commits of `deposits` deposits in one transaction:
/// the mean allocations per commit, and the totals of the cost counters
/// (with the fetch counters summed) as `[locks, fetches, records, bytes]`.
fn cost_of_commits(chain_depth: usize, deposits: usize) -> (f64, [u64; 4]) {
    let bank = Bank::setup(BankConfig { chain_depth, ..Default::default() }).unwrap();
    let (db, op) = (&bank.db, bank.batch_deposit_op(deposits));
    let counters = || {
        let s = db.metrics_snapshot();
        COUNTERS.map(|name| s.counter_value(name).unwrap_or_else(|| panic!("no counter {name}")))
    };
    let mut rng = Rng::new(42);
    let mut commit = |seq| {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        op(db, &mut txn, &mut rng, seq).unwrap();
        db.commit(&mut txn).unwrap();
    };
    (0..WARM_UP).for_each(&mut commit);
    let (before, allocs_before) = (counters(), ALLOCATIONS.load(Ordering::Relaxed));
    COUNTING.with(|c| c.set(true));
    (WARM_UP..WARM_UP + COUNTED).for_each(&mut commit);
    COUNTING.with(|c| c.set(false));
    let allocations = (ALLOCATIONS.load(Ordering::Relaxed) - allocs_before) as f64 / COUNTED as f64;
    let d: [u64; 5] = std::array::from_fn(|i| counters()[i] - before[i]);
    (allocations, [d[0], d[1] + d[2], d[3], d[4]])
}

fn print(shape: &str, (allocations, totals): (f64, [u64; 4])) {
    let [locks, fetches, records, bytes] = totals.map(|t| t as f64 / COUNTED as f64);
    println!(
        "cost per commit, {shape}: {allocations:.1} allocations, {locks:.2} lock grants, \
         {fetches:.2} page fetches, {records:.2} WAL records, {bytes:.1} WAL bytes"
    );
}

/// The `hot-escrow` shape (four deposits, cascading to the rollup row at
/// commit) takes 159.9 allocations per commit, the shape of the other
/// workloads (one deposit) 37.1; 308.7 and 67.4 while every statement
/// copied its table's and views' definitions, 238.7 and 54.5 while an
/// update built two view-row deltas to produce one and every apply
/// re-encoded its group to find the aggregate region, 208.7 and 48.9 while
/// every apply copied the view row twice to see whether it existed, 199.5
/// and 47.0 while the log encoded every record into two fresh buffers and
/// copied it a third time at flush, every user update and compensation
/// built the physical inverse only system operations log, and the B-tree
/// returned copies of what it changed.
///
/// The other four counts are pinned exactly: a cut that removes only
/// copies must leave every lock grant, page fetch and log byte where it
/// was. One test, so the two shapes never run at once.
#[test]
fn cost_per_commit_stays_pinned() {
    let chained = cost_of_commits(1, 4);
    let single = cost_of_commits(0, 1);
    print("4-deposit chained", chained);
    print("1-deposit", single);
    assert!(chained.0 <= 160.0, "4-deposit chained commit: {:.1} allocations", chained.0);
    assert!(single.0 <= 37.5, "1-deposit commit: {:.1} allocations", single.0);
    // Totals over the counted commits: locks, fetches, WAL records, WAL bytes.
    assert_eq!(chained.1, [218_742, 580_599, 184_478, 7_014_898], "4-deposit chained");
    assert_eq!(single.1, [76_312, 130_780, 54_468, 1_849_372], "1-deposit");
}
