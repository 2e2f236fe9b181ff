//! `cold-pool` — the only workload larger than the program's own cache.
//!
//! Closed loop, in process, 1 thread: 262,144 accounts / 65,536 branches
//! (about 1,700 8-KiB pages of base and view data) under a 256-page pool
//! (2 MiB), uniform keys, alternating one deposit and one read-committed
//! view point read; `checkpoint()` every 5 s of the window. Buffer-pool
//! misses, evictions, write-back and B-tree descents of depth ≥ 3 do the
//! work here, and nowhere else: the other three workloads hit the pool.

use super::{
    checkpoint, deposit_txn, ledger, prepare, read_txn, report_closed_loop_rate, report_latency,
};
use super::{wrap_up, Ctx, Outcome, Prepared, QuietReads, Samples};
use crate::trace::Tracer;
use std::time::Instant;
use txview_common::rng::Rng;
use txview_common::Result;
use txview_workload::bank::{Bank, BankConfig};

fn config(ctx: &Ctx) -> BankConfig {
    // A smoke run keeps the shape (data about six times the pool) at a
    // sixteenth of the size, so it sets up in a fraction of a second.
    let scale = if ctx.smoke { 16 } else { 1 };
    BankConfig {
        accounts: 262_144 / scale,
        branches: 65_536 / scale,
        pool_pages: 256 / scale as usize,
        ..Default::default()
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    // The timed loop makes no scans; a full scan reads every view page
    // through the 256-page pool.
    let quiet = QuietReads {
        reads: 0,
        scans: 8,
        range_scans: 2000,
    };
    let Prepared {
        rig: bank,
        mut acked,
    } = prepare(
        &mut out,
        ctx,
        || Bank::setup(config(ctx)),
        (10_000, 1),
        &quiet,
    )?;
    let cfg = &bank.cfg;

    let mut rng = Rng::new(ctx.seed.wrapping_mul(0x9e37_79b9));
    let mut tracer = Tracer::new(ctx.epoch, 0, ctx.traced);
    let mut commit = Samples::with_capacity(1 << 20);
    let mut read = Samples::with_capacity(1 << 20);
    let window_start = Instant::now() + ctx.warmup;
    let end = window_start + ctx.window;
    let mut next_checkpoint = window_start + ctx.checkpoint_every();
    let mut before = None;
    loop {
        let t = Instant::now();
        if t >= end {
            break;
        }
        let at = t.checked_duration_since(window_start);
        if at.is_some() && before.is_none() {
            before = Some(bank.db.metrics_snapshot());
        }
        let traced = at.is_some_and(|at| ctx.traced_at(at));

        let update = [(
            rng.below(cfg.accounts as u64) as i64,
            rng.range_inclusive(1, 9),
        )];
        let result = deposit_txn(&bank, &mut tracer, traced, &update, &mut acked);
        let written = Instant::now();
        let branch = rng.below(cfg.branches as u64) as i64;
        let looked_up = read_txn(&bank, &mut tracer, traced, branch);
        let done = Instant::now();
        if let Some(at) = at {
            out.attempted += 2;
            match result {
                Ok(_) => commit.push(at, written - t),
                Err(_) => out.failed += 1,
            }
            match looked_up {
                Ok(()) => read.push(at, done - written),
                Err(_) => out.failed += 1,
            }
        }
        if done >= next_checkpoint {
            next_checkpoint += ctx.checkpoint_every();
            // A failed checkpoint degrades the engine; the deposits after it
            // then fail and are counted, so the error is not lost.
            let _ = checkpoint(&bank, &mut tracer, ctx.traced);
        }
    }
    let after = bank.db.metrics_snapshot();

    let completed = out.attempted - out.failed;
    report_closed_loop_rate(&mut out, ctx.window, &[&commit, &read]);
    report_latency(&mut out, ctx.window, "commit", &commit);
    report_latency(&mut out, ctx.window, "read", &read);

    if ctx.traced {
        ledger(
            &mut out,
            before
                .as_ref()
                .expect("snapshot taken when the window opened"),
            &after,
            completed,
            false,
        );
        if let Some(frac) = commit.trace_overhead() {
            out.set("trace.overhead_frac", frac);
        }
    }

    wrap_up(&mut out, ctx, &bank, vec![tracer], &acked);
    Ok(out)
}
