//! `hot-escrow` — the paper's headline case: many base rows, few view rows.
//!
//! Closed loop, in process, 2 threads. Each transaction makes 4
//! `update_with` deposits on accounts drawn Zipf(0.9) over 8 branches
//! (8,192 accounts → 8 `branch_balance` rows) with `chain_depth` 1, so the
//! `bank_total` rollup is a single, hotter row and the view queue flushes
//! on every commit. Read committed, no device sync, the pool fits the data.
//! One thread calls `checkpoint()` every 5 s of the window. Server and log
//! sync are bypassed: a server-side gain must show *no change* here.

use super::{
    add_acked, checkpoint, deposit_txn, ledger, prepare, report_closed_loop_rate, report_latency,
};
use super::{wrap_up, Ctx, Outcome, Prepared, QuietReads, Samples};
use crate::trace::Tracer;
use std::time::Instant;
use txview_common::rng::{Rng, Zipf};
use txview_common::Result;
use txview_workload::bank::{Bank, BankConfig};

const THREADS: usize = 2;
const UPDATES_PER_TXN: usize = 4;

fn config() -> BankConfig {
    BankConfig {
        accounts: 8192,
        branches: 8,
        zipf_theta: 0.9,
        chain_depth: 1,
        ..Default::default()
    }
}

struct ThreadResult {
    commit: Samples,
    acked: Vec<i64>,
    attempted: u64,
    failed: u64,
    attempts: u64,
    retries: u64,
    tracer: Tracer,
}

fn generate(ctx: &Ctx, bank: &Bank, index: usize, start: Instant) -> ThreadResult {
    let cfg = &bank.cfg;
    let zipf = Zipf::new(cfg.branches as u64, cfg.zipf_theta);
    let per_branch = (cfg.accounts / cfg.branches) as u64;
    let mut rng = Rng::new(
        ctx.seed
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(index as u64),
    );
    let tracer = Tracer::new(ctx.epoch, index as u64, ctx.traced);
    let mut r = ThreadResult {
        commit: Samples::with_capacity(1 << 20),
        acked: vec![0; cfg.branches as usize],
        attempted: 0,
        failed: 0,
        attempts: 0,
        retries: 0,
        tracer,
    };
    let window_start = start + ctx.warmup;
    let end = window_start + ctx.window;
    let mut next_checkpoint = window_start + ctx.checkpoint_every();
    let mut updates = Vec::with_capacity(UPDATES_PER_TXN);
    loop {
        let t = Instant::now();
        if t >= end {
            return r;
        }
        // Zipf over branches, uniform within the branch; distinct accounts
        // in ascending order, so two transactions never wait on each other
        // in a cycle and no operation fails.
        updates.clear();
        while updates.len() < UPDATES_PER_TXN {
            let account =
                (rng.below(per_branch) * cfg.branches as u64 + zipf.sample(&mut rng)) as i64;
            if !updates.iter().any(|&(a, _)| a == account) {
                updates.push((account, rng.range_inclusive(1, 9)));
            }
        }
        updates.sort_unstable();
        let at = t.checked_duration_since(window_start);
        let traced = at.is_some_and(|at| ctx.traced_at(at));
        let result = deposit_txn(bank, &mut r.tracer, traced, &updates, &mut r.acked);
        let latency = t.elapsed();
        if let Some(at) = at {
            r.attempted += 1;
            match result {
                Ok(retries) => {
                    r.commit.push(at, latency);
                    r.attempts += u64::from(retries) + 1;
                    r.retries += u64::from(retries);
                }
                Err(_) => r.failed += 1,
            }
        }
        if index == 0 && Instant::now() >= next_checkpoint {
            next_checkpoint += ctx.checkpoint_every();
            // A failed checkpoint degrades the engine; the deposits after it
            // then fail and are counted, so the error is not lost.
            let _ = checkpoint(bank, &mut r.tracer, ctx.traced);
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome> {
    let mut out = Outcome::default();
    // The timed loop only writes.
    let quiet = QuietReads {
        reads: 50_000,
        scans: 20_000,
        range_scans: 20_000,
    };
    let work = (10_000, UPDATES_PER_TXN);
    let Prepared {
        rig: bank,
        mut acked,
    } = prepare(&mut out, ctx, || Bank::setup(config()), work, &quiet)?;

    let start = Instant::now();
    let mut before = None;
    let results: Vec<ThreadResult> = std::thread::scope(|scope| {
        let bank = &bank;
        let handles: Vec<_> = (0..THREADS)
            .map(|i| scope.spawn(move || generate(ctx, bank, i, start)))
            .collect();
        std::thread::sleep(ctx.warmup);
        before = Some(bank.db.metrics_snapshot());
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let after = bank.db.metrics_snapshot();

    let (mut attempts, mut retries) = (0, 0);
    let mut tracers = Vec::new();
    let mut commits = Vec::new();
    for r in results {
        add_acked(&mut acked, &r.acked);
        out.attempted += r.attempted;
        out.failed += r.failed;
        attempts += r.attempts;
        retries += r.retries;
        tracers.push(r.tracer);
        commits.push(r.commit);
    }
    let commit = Samples::merged(commits);
    let completed = out.attempted - out.failed;
    report_closed_loop_rate(&mut out, ctx.window, &[&commit]);
    report_latency(&mut out, ctx.window, "commit", &commit);

    if ctx.traced {
        ledger(
            &mut out,
            before.as_ref().expect("snapshot taken after warm-up"),
            &after,
            completed,
            false,
        );
        out.set("txn.retry_frac", retries as f64 / (attempts.max(1)) as f64);
        if let Some(frac) = commit.trace_overhead() {
            out.set("trace.overhead_frac", frac);
        }
    }

    wrap_up(&mut out, ctx, &bank, tracers, &acked);
    Ok(out)
}
