//! `htap-scan` — one view B-tree and one version store used two ways at
//! once: writes beside reads.
//!
//! In process, 8,192 accounts / 2,048 branches. Thread 1 is a writer
//! paced open-loop at 10,000 single-deposit transactions/s (well under
//! capacity, so the write load is the same on every commit being compared;
//! its latency counts from the scheduled time). Thread 2 is a reader
//! cycling one Snapshot full `view_scan` (2,048 rows), one Snapshot range
//! scan of 256 groups and 16 read-committed `view_lookup`s, each call in
//! its own transaction. Version chains form during the first seconds, so
//! the warm-up here is 5 s.

use super::{add_acked, deposit_txn, ledger, pick_range, prepare, read_txn, report_latency};
use super::{scan_txn, wrap_up, Ctx, Outcome, Prepared, QuietReads, Samples};
use crate::pace::{wait_until, Pacer};
use crate::trace::Tracer;
use std::time::Instant;
use txview_common::rng::Rng;
use txview_common::Result;
use txview_workload::bank::{Bank, BankConfig};

const WRITE_RATE: f64 = 10_000.0;
const LOOKUPS_PER_CYCLE: usize = 16;

fn config() -> BankConfig {
    BankConfig {
        accounts: 8192,
        branches: 2048,
        ..Default::default()
    }
}

struct Writer {
    commit: Samples,
    late_ns: Vec<u64>,
    acked: Vec<i64>,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

fn write(ctx: &Ctx, bank: &Bank, start: Instant) -> Writer {
    let mut rng = Rng::new(ctx.seed.wrapping_mul(0x9e37_79b9));
    let tracer = Tracer::new(ctx.epoch, 0, ctx.traced);
    let window_ops = (WRITE_RATE * ctx.window.as_secs_f64()) as usize;
    let mut w = Writer {
        commit: Samples::with_capacity(window_ops),
        late_ns: Vec::with_capacity(window_ops),
        acked: vec![0; bank.cfg.branches as usize],
        attempted: 0,
        failed: 0,
        tracer,
    };
    let window_start = start + ctx.warmup;
    let ops = (WRITE_RATE * (ctx.warmup + ctx.window).as_secs_f64()) as usize;
    let mut pacer = Pacer::new(start, WRITE_RATE);
    for _ in 0..ops {
        let due = pacer.next_due();
        let late = wait_until(due);
        let update = [(
            rng.below(bank.cfg.accounts as u64) as i64,
            rng.range_inclusive(1, 9),
        )];
        let at = due.checked_duration_since(window_start);
        let traced = at.is_some_and(|at| ctx.traced_at(at));
        let result = deposit_txn(bank, &mut w.tracer, traced, &update, &mut w.acked);
        let latency = due.elapsed();
        if let Some(at) = at {
            w.attempted += 1;
            w.late_ns.push(late);
            match result {
                Ok(_) => w.commit.push(at, latency),
                Err(_) => w.failed += 1,
            }
        }
    }
    w
}

struct Reader {
    scan: Samples,
    range_scan: Samples,
    read: Samples,
    attempted: u64,
    failed: u64,
    tracer: Tracer,
}

fn read(ctx: &Ctx, bank: &Bank, start: Instant) -> Reader {
    let mut rng = Rng::new(ctx.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let tracer = Tracer::new(ctx.epoch, 1, ctx.traced);
    let mut r = Reader {
        scan: Samples::with_capacity(1 << 14),
        range_scan: Samples::with_capacity(1 << 14),
        read: Samples::with_capacity(1 << 18),
        attempted: 0,
        failed: 0,
        tracer,
    };
    let window_start = start + ctx.warmup;
    let end = window_start + ctx.window;
    // One timed call; records it when it starts inside the window.
    let call = |r: &mut Reader,
                pick: fn(&mut Reader) -> &mut Samples,
                op: &mut dyn FnMut(&mut Tracer, bool) -> Result<()>| {
        let t = Instant::now();
        let at = t.checked_duration_since(window_start);
        let traced = at.is_some_and(|at| ctx.traced_at(at));
        let result = op(&mut r.tracer, traced);
        let latency = t.elapsed();
        if let Some(at) = at {
            r.attempted += 1;
            match result {
                Ok(()) => pick(r).push(at, latency),
                Err(_) => r.failed += 1,
            }
        }
    };
    while Instant::now() < end {
        call(&mut r, |r| &mut r.scan, &mut |tr, traced| {
            scan_txn(bank, tr, traced, None)
        });
        let range = pick_range(bank, &mut rng);
        call(&mut r, |r| &mut r.range_scan, &mut |tr, traced| {
            scan_txn(bank, tr, traced, Some(range))
        });
        for _ in 0..LOOKUPS_PER_CYCLE {
            let branch = rng.below(bank.cfg.branches as u64) as i64;
            call(&mut r, |r| &mut r.read, &mut |tr, traced| {
                read_txn(bank, tr, traced, branch)
            });
        }
    }
    r
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    // The reader makes every kind of read in the timed window.
    let quiet = QuietReads {
        reads: 0,
        scans: 0,
        range_scans: 0,
    };
    let Prepared {
        rig: bank,
        mut acked,
    } = prepare(&mut out, ctx, || Bank::setup(config()), (20_000, 1), &quiet)?;

    let start = Instant::now();
    let mut before = None;
    let (w, r) = std::thread::scope(|scope| {
        let bank = &bank;
        let writer = scope.spawn(move || write(ctx, bank, start));
        let reader = scope.spawn(move || read(ctx, bank, start));
        std::thread::sleep(ctx.warmup);
        before = Some(bank.db.metrics_snapshot());
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let after = bank.db.metrics_snapshot();

    out.attempted = w.attempted + r.attempted;
    out.failed = w.failed + r.failed;
    let completed = out.attempted - out.failed;
    // The writer's share is its fixed 10,000/s unless it falls behind.
    out.set("ops_per_s", completed as f64 / ctx.window.as_secs_f64());
    report_latency(&mut out, ctx.window, "commit", &w.commit);
    report_latency(&mut out, ctx.window, "read", &r.read);
    report_latency(&mut out, ctx.window, "scan", &r.scan);
    report_latency(&mut out, ctx.window, "range_scan", &r.range_scan);

    if ctx.traced {
        ledger(
            &mut out,
            before.as_ref().expect("snapshot taken after warm-up"),
            &after,
            completed,
            false,
        );
        let mut late = w.late_ns;
        late.sort_unstable();
        if !late.is_empty() {
            out.set("client.late_p99_us", Samples::us(&late, 99.0));
        }
        if let Some(frac) = w.commit.trace_overhead() {
            out.set("trace.overhead_frac", frac);
        }
    }

    add_acked(&mut acked, &w.acked);
    wrap_up(&mut out, ctx, &bank, vec![w.tracer, r.tracer], &acked);
    Ok(out)
}
