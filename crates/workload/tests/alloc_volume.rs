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

/// Mean allocations per commit of `deposits` deposits in one transaction.
fn allocations_per_commit(chain_depth: usize, deposits: usize) -> f64 {
    let bank = Bank::setup(BankConfig { chain_depth, ..Default::default() }).unwrap();
    let (db, op) = (&bank.db, bank.batch_deposit_op(deposits));
    let mut rng = Rng::new(42);
    let mut commit = |seq| {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        op(db, &mut txn, &mut rng, seq).unwrap();
        db.commit(&mut txn).unwrap();
    };
    (0..WARM_UP).for_each(&mut commit);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    (WARM_UP..WARM_UP + COUNTED).for_each(&mut commit);
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / COUNTED as f64
}

/// The `hot-escrow` shape (four deposits, cascading to the rollup row at
/// commit) takes 208.7 allocations per commit, the shape of the other
/// workloads (one deposit) 48.9; 308.7 and 67.4 while every statement
/// copied its table's and views' definitions, 238.7 and 54.5 while an
/// update built two view-row deltas to produce one and every apply
/// re-encoded its group to find the aggregate region. One test, so the
/// two counts never run at once.
#[test]
fn allocations_per_commit_stay_under_their_bounds() {
    let chained = allocations_per_commit(1, 4);
    let single = allocations_per_commit(0, 1);
    println!("allocations per commit: 4-deposit chained {chained:.1}, 1-deposit {single:.1}");
    assert!(chained <= 209.0, "4-deposit chained commit: {chained:.1} allocations");
    assert!(single <= 49.0, "1-deposit commit: {single:.1} allocations");
}
