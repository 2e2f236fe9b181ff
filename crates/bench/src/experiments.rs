//! The experiments, the `--metrics` demo cell and the `--smoke-scale` CI
//! gate. See `DESIGN.md` §3 for the claim each experiment tests and
//! `EXPERIMENTS.md` for recorded results.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_common::Value;
use txview_engine::{IsolationLevel, MaintenanceMode};
use txview_workload::bank::{Bank, BankConfig};
use txview_workload::churn::{Churn, ChurnConfig};
use txview_workload::driver::{run_for, GroupResult, WorkerSpec};
use txview_workload::report::{f, pct, Table};
use txview_workload::sales::{Sales, SalesConfig};

/// Knobs shared by all experiments.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Wall-clock duration per measured cell.
    pub cell: Duration,
    /// Writer thread counts used by sweeps (capped to this max elsewhere).
    pub max_threads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig { cell: Duration::from_millis(1500), max_threads: 16 }
    }
}

impl ExpConfig {
    /// A fast smoke configuration (CI, `--quick`).
    pub fn quick() -> ExpConfig {
        ExpConfig { cell: Duration::from_millis(300), max_threads: 8 }
    }
}

fn mode_name(m: MaintenanceMode) -> &'static str {
    match m {
        MaintenanceMode::Escrow => "escrow",
        MaintenanceMode::XLock => "xlock",
    }
}

/// E1 — throughput vs. concurrent writers, escrow vs. X-lock, 8 hot view
/// rows. The paper's headline: escrow scales, X-lock flatlines.
pub fn e1(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E1: writer throughput vs threads (8 branches, 4-update txns), commits/s",
        &["threads", "escrow", "xlock", "escrow/xlock"],
    );
    let threads: Vec<usize> = [1usize, 2, 4, 8, 16]
        .into_iter()
        .filter(|&t| t <= cfg.max_threads)
        .collect();
    for &t in &threads {
        let mut tput = [0.0f64; 2];
        for (i, mode) in [MaintenanceMode::Escrow, MaintenanceMode::XLock].into_iter().enumerate() {
            let bank = Bank::setup(BankConfig { mode, ..Default::default() }).expect("setup");
            let specs = [WorkerSpec {
                name: "deposit".into(),
                threads: t,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.batch_deposit_op(4),
            }];
            let res = run_for(&bank.db, &specs, cfg.cell);
            bank.verify().expect("view consistent after E1 cell");
            tput[i] = res[0].throughput();
        }
        table.row(vec![
            t.to_string(),
            f(tput[0]),
            f(tput[1]),
            f(tput[0] / tput[1].max(1e-9)),
        ]);
    }
    table
}

/// E2 — abort/deadlock behaviour of multi-row transactions under skew.
pub fn e2(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E2: transfers (2 accounts/txn, 8 threads): commits/s, deadlocks, aborts",
        &["theta", "mode", "commits/s", "deadlocks", "timeouts", "abort rate"],
    );
    let threads = 8.min(cfg.max_threads);
    for theta in [0.0, 0.8, 1.2] {
        for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
            let bank = Bank::setup(BankConfig { mode, zipf_theta: theta, ..Default::default() })
                .expect("setup");
            let specs = [WorkerSpec {
                name: "transfer".into(),
                threads,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.transfer_op(2),
            }];
            let res = run_for(&bank.db, &specs, cfg.cell);
            bank.verify().expect("view consistent after E2 cell");
            table.row(vec![
                format!("{theta:.1}"),
                mode_name(mode).into(),
                f(res[0].throughput()),
                res[0].deadlocks.to_string(),
                res[0].timeouts.to_string(),
                pct(res[0].abort_rate()),
            ]);
        }
    }
    table
}

/// E3 — the contention crossover: sweep the number of groups (view rows).
pub fn e3(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E3: throughput vs #groups (8 threads, 4-update txns), commits/s",
        &["groups", "escrow", "xlock", "escrow/xlock"],
    );
    let threads = 8.min(cfg.max_threads);
    for groups in [1i64, 4, 16, 256, 4096] {
        let mut tput = [0.0f64; 2];
        for (i, mode) in [MaintenanceMode::Escrow, MaintenanceMode::XLock].into_iter().enumerate() {
            let accounts = (groups * 4).max(4096);
            let bank = Bank::setup(BankConfig {
                mode,
                branches: groups,
                accounts,
                ..Default::default()
            })
            .expect("setup");
            let specs = [WorkerSpec {
                name: "deposit".into(),
                threads,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.batch_deposit_op(4),
            }];
            let res = run_for(&bank.db, &specs, cfg.cell);
            bank.verify().expect("view consistent after E3 cell");
            tput[i] = res[0].throughput();
        }
        table.row(vec![
            groups.to_string(),
            f(tput[0]),
            f(tput[1]),
            f(tput[0] / tput[1].max(1e-9)),
        ]);
    }
    table
}

/// E4 — reader isolation levels against escrow writers.
pub fn e4(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E4: 8 escrow writers + 2 view-scanning readers, by reader isolation",
        &["reader isolation", "writer commits/s", "reader scans/s", "reader mean ms", "anomalies"],
    );
    let wthreads = 8.min(cfg.max_threads);
    for (name, iso) in [
        ("serializable", IsolationLevel::Serializable),
        ("read-committed", IsolationLevel::ReadCommitted),
        ("snapshot", IsolationLevel::Snapshot),
    ] {
        let bank = Bank::setup(BankConfig::default()).expect("setup");
        let anomalies = Arc::new(AtomicU64::new(0));
        let specs = [
            WorkerSpec {
                name: "transfer".into(),
                threads: wthreads,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.transfer_op(2),
            },
            WorkerSpec {
                name: "audit".into(),
                threads: 2,
                isolation: iso,
                op: bank.audit_op(Arc::clone(&anomalies)),
            },
        ];
        let res = run_for(&bank.db, &specs, cfg.cell);
        bank.verify().expect("view consistent after E4 cell");
        table.row(vec![
            name.into(),
            f(res[0].throughput()),
            f(res[1].throughput()),
            f(res[1].mean_latency_us() / 1000.0),
            anomalies.load(Ordering::Relaxed).to_string(),
        ]);
    }
    table
}

/// E5 — logging and recovery: log volume per committed transaction, crash
/// with in-flight losers, phase-by-phase recovery work, post-recovery
/// verification.
pub fn e5(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E5: crash recovery (steal=0.5, 4 in-flight losers at crash)",
        &[
            "mode",
            "log bytes/commit",
            "analysis recs",
            "redo applied",
            "logical undos",
            "a+r+u ms",
            "view verified",
        ],
    );
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        let bank = Bank::setup(BankConfig { mode, ..Default::default() }).expect("setup");
        let db = Arc::clone(&bank.db);
        let before = db.stats();
        let specs = [WorkerSpec {
            name: "deposit".into(),
            threads: 4.min(cfg.max_threads),
            isolation: IsolationLevel::ReadCommitted,
            op: bank.deposit_op(),
        }];
        let res = run_for(&db, &specs, cfg.cell);
        let after = db.stats();
        let bytes_per_commit =
            (after.log_bytes - before.log_bytes) as f64 / res[0].committed.max(1) as f64;
        db.checkpoint().expect("checkpoint");

        // Leave 4 transactions in flight (losers) and crash.
        for k in 0..4i64 {
            let mut txn = db.begin(IsolationLevel::ReadCommitted);
            db.update_with(&mut txn, "accounts", &[Value::Int(k)], |r| {
                let mut out = r.clone();
                let bal = r.get(2).as_int().unwrap();
                out.set(2, Value::Int(bal + 1_000_000));
                out
            })
            .expect("loser op");
            std::mem::forget(txn);
        }
        let t0 = Instant::now();
        let report = db.crash_and_recover(0.5, 0xC0FFEE).expect("recovery");
        let recovery_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let verified = bank.verify().is_ok();
        assert!(verified, "E5 post-recovery verification failed");
        assert!(report.losers >= 4);
        let _ = recovery_ms;
        table.row(vec![
            mode_name(mode).into(),
            f(bytes_per_commit),
            report.analysis_records.to_string(),
            report.redo_applied.to_string(),
            report.logical_undos.to_string(),
            format!(
                "{}+{}+{}",
                f(report.analysis_us as f64 / 1000.0),
                f(report.redo_us as f64 / 1000.0),
                f(report.undo_us as f64 / 1000.0)
            ),
            verified.to_string(),
        ]);
    }
    table
}

/// E6 — immediate vs. deferred maintenance: writer cost, reader cost,
/// staleness, refresh spike.
pub fn e6(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E6: immediate vs deferred maintenance (4 insert threads)",
        &["variant", "inserts/s", "insert mean us", "staleness (pending)", "refresh ms"],
    );
    let threads = 4.min(cfg.max_threads);
    for (name, n_views, deferred) in [
        ("no view", 0usize, false),
        ("immediate escrow", 1, false),
        ("deferred", 1, true),
    ] {
        let sales =
            Sales::setup(SalesConfig { n_views, deferred, ..Default::default() }).expect("setup");
        let specs = [WorkerSpec {
            name: "insert".into(),
            threads,
            isolation: IsolationLevel::ReadCommitted,
            op: sales.insert_sale_op(),
        }];
        let res = run_for(&sales.db, &specs, cfg.cell);
        let (staleness, refresh_ms) = if deferred {
            let staleness = sales.db.harness().deferred_staleness("sales_by_product_0").unwrap();
            let t0 = Instant::now();
            sales.db.harness().refresh_deferred_view("sales_by_product_0").unwrap();
            (staleness, t0.elapsed().as_secs_f64() * 1000.0)
        } else {
            (0, 0.0)
        };
        sales.verify().expect("views consistent after E6 cell");
        table.row(vec![
            name.into(),
            f(res[0].throughput()),
            f(res[0].mean_latency_us()),
            staleness.to_string(),
            f(refresh_ms),
        ]);
    }
    table
}

/// E7 — the group come/go anomaly: ghost-based (paper) vs. eager deletion.
pub fn e7(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E7: group churn, 8 threads, 2 group-toggles per txn over 16 groups",
        &[
            "variant",
            "commits/s",
            "deadlocks",
            "abort rate",
            "cleanup removed",
            "view verified",
        ],
    );
    let threads = 8.min(cfg.max_threads);
    for (name, eager) in [("ghost+async cleanup", false), ("eager delete", true)] {
        let churn = Churn::setup(ChurnConfig { eager_group_delete: eager, ..Default::default() })
            .expect("setup");
        let specs = [WorkerSpec {
            name: "toggle".into(),
            threads,
            isolation: IsolationLevel::ReadCommitted,
            op: churn.toggle_op(2),
        }];
        let res = run_for(&churn.db, &specs, cfg.cell);
        let cleanup = churn.db.run_ghost_cleanup().expect("cleanup");
        let verified = churn.verify().is_ok();
        assert!(verified, "E7 verification failed ({name})");
        table.row(vec![
            name.into(),
            f(res[0].throughput()),
            res[0].deadlocks.to_string(),
            pct(res[0].abort_rate()),
            cleanup.removed.to_string(),
            verified.to_string(),
        ]);
    }
    table
}

/// E8 — per-DML maintenance overhead vs. number of indexed views.
pub fn e8(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E8: insert throughput vs #views maintained (4 threads)",
        &["views", "inserts/s", "vs 0 views"],
    );
    let threads = 4.min(cfg.max_threads);
    let mut base_tput = 0.0f64;
    for (label, n_views, join) in [
        ("0", 0usize, false),
        ("1", 1, false),
        ("2", 2, false),
        ("4", 4, false),
        ("8", 8, false),
        ("4+join", 4, true),
    ] {
        let sales = Sales::setup(SalesConfig { n_views, join_view: join, ..Default::default() })
            .expect("setup");
        let specs = [WorkerSpec {
            name: "insert".into(),
            threads,
            isolation: IsolationLevel::ReadCommitted,
            op: sales.insert_sale_op(),
        }];
        let res = run_for(&sales.db, &specs, cfg.cell);
        sales.verify().expect("views consistent after E8 cell");
        let tput = res[0].throughput();
        if n_views == 0 && !join {
            base_tput = tput;
        }
        table.row(vec![
            label.into(),
            f(tput),
            pct(tput / base_tput.max(1e-9)),
        ]);
    }
    table
}

/// One deposit cell's throughput (commits/s) — the E1/E12 workload: 8 hot
/// view rows, 4-update transactions. `branches` sets the contention level
/// (the smoke gate narrows to 4 to sharpen the escrow/xlock separation).
fn deposit_tput(cfg: &ExpConfig, mode: MaintenanceMode, threads: usize, branches: i64) -> f64 {
    deposit_tput_cfg(cfg, BankConfig { mode, branches, ..Default::default() }, threads)
}

/// One deposit cell's throughput against an arbitrary bank configuration
/// (the E13 cells toggle `pipeline` and the sync latency on top of the E1
/// workload).
fn deposit_tput_cfg(cfg: &ExpConfig, bank_cfg: BankConfig, threads: usize) -> f64 {
    deposit_cell(cfg, bank_cfg, threads).throughput()
}

/// One E1-workload deposit cell (4-update transactions), verified.
fn deposit_cell(cfg: &ExpConfig, bank_cfg: BankConfig, threads: usize) -> GroupResult {
    let bank = Bank::setup(bank_cfg).expect("setup");
    let specs = [WorkerSpec {
        name: "deposit".into(),
        threads,
        isolation: IsolationLevel::ReadCommitted,
        op: bank.batch_deposit_op(4),
    }];
    let res = run_for(&bank.db, &specs, cfg.cell);
    bank.verify().expect("view consistent after deposit cell");
    res.into_iter().next().expect("one worker group")
}

/// E11 — what the commit-latency histograms show: escrow vs X-lock
/// percentiles at full contention (max threads, 8 hot view rows), the
/// evidence the mean in E1 hides.
pub fn e11(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E11: commit latency percentiles at max threads (4-update deposit txns), us",
        &["mode", "threads", "commits/s", "mean", "p50", "p95", "p99"],
    );
    let t = cfg.max_threads;
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        let r = deposit_cell(cfg, BankConfig { mode, ..Default::default() }, t);
        table.row(vec![
            mode_name(mode).into(),
            t.to_string(),
            f(r.throughput()),
            f(r.mean_latency_us()),
            r.latency.p50().to_string(),
            r.latency.p95().to_string(),
            r.latency.p99().to_string(),
        ]);
    }
    table
}

/// Run a short contended deposit cell and return the engine's
/// human-readable metrics table (`Snapshot::report`) — the
/// `--metrics` output of `run_experiments`.
pub fn metrics_demo(cfg: &ExpConfig) -> String {
    let bank = Bank::setup(BankConfig::default()).expect("setup");
    let specs = [WorkerSpec {
        name: "deposit".into(),
        threads: 4.min(cfg.max_threads).max(2),
        isolation: IsolationLevel::ReadCommitted,
        op: bank.batch_deposit_op(4),
    }];
    let _ = run_for(&bank.db, &specs, cfg.cell);
    bank.verify().expect("view consistent after metrics demo cell");
    bank.db.metrics_snapshot().report()
}

/// E12 — scaling profile of the sharded hot path (PR 5): the E1 workload,
/// but reporting each mode's *self-speedup* over its own 1-thread cell
/// next to the escrow/xlock ratio. With the version store, txn/touched
/// registries, ghost queue, and buffer-pool state all sharded, escrow's
/// remaining serialization points are the WAL tail and the hot view rows
/// themselves — so on a multicore host the escrow column should now rise
/// with threads instead of flatlining at the registry mutexes.
pub fn e12(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E12: sharded hot path — deposit commits/s and speedup vs 1 thread",
        &["threads", "escrow", "escrow vs 1t", "xlock", "xlock vs 1t", "escrow/xlock"],
    );
    let threads: Vec<usize> =
        [1usize, 2, 4, 8, 16].into_iter().filter(|&t| t <= cfg.max_threads).collect();
    let mut base = [1.0f64; 2];
    for &t in &threads {
        let mut tput = [0.0f64; 2];
        for (i, mode) in [MaintenanceMode::Escrow, MaintenanceMode::XLock].into_iter().enumerate() {
            tput[i] = deposit_tput(cfg, mode, t, 8);
        }
        if t == 1 {
            base = [tput[0].max(1e-9), tput[1].max(1e-9)];
        }
        table.row(vec![
            t.to_string(),
            f(tput[0]),
            format!("{:.2}x", tput[0] / base[0]),
            f(tput[1]),
            format!("{:.2}x", tput[1] / base[1]),
            f(tput[0] / tput[1].max(1e-9)),
        ]);
    }
    table
}

/// E13 — group commit: the E1 deposit workload in escrow mode through two
/// commit paths — the serial per-committer flush and the leader-based
/// group-commit pipeline. The serial path forces one append+sync per
/// committer, so under contention the WAL is the whole story; the
/// pipeline amortizes the sync over the batch.
/// E13 additionally re-runs every cell with a seeded per-sync device
/// latency injected into the log store: on a zero-latency in-memory WAL
/// the sync is nearly free and batching can only show its locking
/// effects, but with a realistic fsync cost the pipeline's one-sync-per-
/// batch amortization becomes the dominant term — which is the number
/// group commit exists to move.
pub fn e13(cfg: &ExpConfig) -> Table {
    let mut table = Table::new(
        "E13: commit-path comparison — escrow deposit commits/s",
        &["sync µs", "threads", "serial", "pipeline", "pipe vs serial"],
    );
    let threads: Vec<usize> =
        [1usize, 2, 4, 8, 16].into_iter().filter(|&t| t <= cfg.max_threads).collect();
    for sync_us in [0u64, 50] {
        for &t in &threads {
            let cell = |pipeline: bool| {
                deposit_tput_cfg(
                    cfg,
                    BankConfig {
                        mode: MaintenanceMode::Escrow,
                        pipeline,
                        sync_latency_us: sync_us,
                        ..Default::default()
                    },
                    t,
                )
            };
            let serial = cell(false);
            let piped = cell(true);
            table.row(vec![
                sync_us.to_string(),
                t.to_string(),
                f(serial),
                f(piped),
                format!("{:.2}x", piped / serial.max(1e-9)),
            ]);
        }
    }
    table
}

/// Outcome of the sync-latency pipeline gate: strict-serial vs pipelined
/// commit paths measured **on this host**, under a seeded 50 µs WAL sync
/// latency.
#[derive(Clone, Copy, Debug)]
pub struct PipelineGate {
    /// Best-of-3 commits/s through the strict serial commit path.
    pub serial: f64,
    /// Best-of-3 commits/s through the group-commit pipeline.
    pub pipelined: f64,
    /// `pipelined / serial`.
    pub ratio: f64,
    /// Minimum ratio the gate demands.
    pub threshold: f64,
    /// Whether the verdict gates CI (always true — that is the point).
    pub enforced: bool,
    /// `ratio >= threshold`.
    pub pass: bool,
}

/// The pipeline gate. It compares nothing against an absolute throughput
/// recorded on another machine (such a gate has to be skipped on small
/// hosts and then gates nothing); both of its machine dependencies are
/// removed:
///
/// * **relative, same-host** — serial and pipelined cells run back to
///   back on the same machine; no cross-machine constant.
/// * **seeded sync cost** — with a 0-cost in-memory WAL sync there is
///   nothing for group commit to amortize, so the ratio measures noise.
///   A seeded 50 µs `FaultLogStore` sync latency restores the quantity
///   the pipeline exists to amortize. Batching then wins even on one
///   core: N concurrent committers pay N device waits serially but ~1
///   per batch pipelined, independent of true parallelism.
/// * **commit-path cell, not the bank cell** — a full deposit
///   transaction costs ~50 µs of CPU on a small host, the same as the
///   seeded device. A cell whose bottleneck is CPU work measures the
///   host, not the commit protocol (the original form of this gate sat
///   at ~0.9x forever for exactly that reason). The gate cell is the
///   commit path alone: N threads appending commit records and forcing
///   them through [`LogManager::flush_strict`] (serial) or
///   [`CommitPipeline::commit_wait`] (pipelined), over the same
///   latency-seeded store.
///
/// The serial baseline uses `flush_strict`, the same call the engine's
/// non-pipelined commit makes: the split-lock `flush_to` lets blocked
/// flushers piggyback on each other's syncs (accidental group commit),
/// which silently handed the baseline the very optimisation under test.
///
/// The threshold is 1.5x — very conservative against the ~batch-size
/// ratio a healthy pipeline delivers — and the gate is **always
/// enforced**.
pub fn pipeline_sync_gate(cfg: &ExpConfig) -> PipelineGate {
    const SYNC_US: u64 = 50;
    const THRESHOLD: f64 = 1.5;
    // Batching needs concurrent committers; never measure at 1 thread.
    let threads = 8.min(cfg.max_threads).max(2);
    // The microbench converges fast; cap the cell so the full-length
    // configuration does not spend seconds on a smoke gate.
    let cell = cfg.cell.min(Duration::from_millis(400));
    let best = |pipelined: bool| {
        (0..3)
            .map(|_| commit_path_tput(cell, threads, pipelined, SYNC_US))
            .fold(f64::MIN, f64::max)
    };
    let serial = best(false);
    let pipelined = best(true);
    let ratio = pipelined / serial.max(1e-9);
    PipelineGate {
        serial,
        pipelined,
        ratio,
        threshold: THRESHOLD,
        enforced: true,
        pass: ratio >= THRESHOLD,
    }
}

/// One commit-path cell for [`pipeline_sync_gate`]: `threads` committers
/// appending commit records to a WAL whose store charges a deterministic
/// `sync_us` per device sync, each forcing durability through either the
/// strict serial flush or the group-commit pipeline. Every ack is checked
/// against the flushed watermark — a protocol that acked without
/// durability would inflate its own score.
fn commit_path_tput(cell: Duration, threads: usize, pipelined: bool, sync_us: u64) -> f64 {
    use std::sync::atomic::AtomicBool;
    use txview_common::{Lsn, TxnId};
    use txview_storage::fault::FaultClock;
    use txview_txn::CommitPipeline;
    use txview_wal::{FaultLogStore, LogManager, RecordBody};

    let clock = FaultClock::new();
    let store = FaultLogStore::new(Arc::clone(&clock));
    store.set_sync_latency(sync_us, 0, 42);
    let log = Arc::new(LogManager::open(Box::new(store)).expect("open log"));
    let pipe = Arc::new(CommitPipeline::new(Arc::clone(&log)));
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..threads)
        .map(|i| {
            let (log, pipe, stop, total) =
                (Arc::clone(&log), Arc::clone(&pipe), Arc::clone(&stop), Arc::clone(&total));
            std::thread::spawn(move || {
                let mut txn = (i as u64) * 1_000_000 + 1;
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let lsn = log.append(TxnId(txn), Lsn::NULL, RecordBody::Commit);
                    if pipelined {
                        pipe.commit_wait(TxnId(txn), lsn, None).expect("commit");
                    } else {
                        log.flush_strict(lsn).expect("commit");
                    }
                    assert!(log.flushed_lsn() >= lsn, "acked commit not durable");
                    txn += 1;
                    n += 1;
                }
                total.fetch_add(n, Ordering::Relaxed);
            })
        })
        .collect();
    let t0 = Instant::now();
    std::thread::sleep(cell);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("committer");
    }
    total.load(Ordering::Relaxed) as f64 / t0.elapsed().as_secs_f64()
}

/// The `--smoke-scale` CI gate: cheap evidence that the sharded hot path
/// actually scales, without running the full evaluation. Two checks:
///
/// * **self-scaling** — escrow at 8 threads must beat escrow at 1 thread
///   by ≥ 1.3x. Only enforced when the host has ≥ 4 hardware threads: on
///   a 1–2 core box extra writer threads cannot add throughput no matter
///   how well the engine shards, so the check would measure the machine,
///   not the code (it is still printed for the record).
/// * **escrow/xlock gap** — escrow must beat the X-lock baseline by ≥ 2x
///   at 8 threads. This holds even single-core (the gap comes from lock
///   conflicts and deadlock aborts, not parallelism), so it is always
///   enforced. The gate runs the 4-branch cell rather than E1's 8: halving
///   the hot rows roughly doubles the X-lock conflict rate while leaving
///   escrow untouched (its locks commute), pushing the true ratio to ~3x
///   (cf. E3) so short noisy cells still clear 2x with margin.
///
/// * **pipeline sync gate (always enforced)** — the group-commit pipeline
///   must beat the strict serial commit path by ≥ 1.5x under a seeded
///   50 µs WAL sync latency ([`pipeline_sync_gate`]).
///
/// Returns `(report, pass)`; the binary exits nonzero on `!pass`.
pub fn smoke_scale(cfg: &ExpConfig) -> (String, bool) {
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let hi = 8.min(cfg.max_threads);
    // Best-of-3 per cell: a single short cell is dominated by scheduler
    // noise (especially on small hosts); the max across repeats is the
    // standard way to measure capability rather than interference.
    let best = |mode, threads| {
        (0..3).map(|_| deposit_tput(cfg, mode, threads, 4)).fold(f64::MIN, f64::max)
    };
    let escrow1 = best(MaintenanceMode::Escrow, 1);
    let escrow8 = best(MaintenanceMode::Escrow, hi);
    let xlock8 = best(MaintenanceMode::XLock, hi);
    let self_scale = escrow8 / escrow1.max(1e-9);
    let gap = escrow8 / xlock8.max(1e-9);

    let sync_gate = pipeline_sync_gate(cfg);

    let scale_enforced = cores >= 4;
    let scale_ok = self_scale >= 1.3;
    let gap_ok = gap >= 2.0;
    let pass = gap_ok && sync_gate.pass && (scale_ok || !scale_enforced);

    let mut report = String::new();
    report.push_str(&format!(
        "smoke-scale gate (cell {:?}, {cores} hardware threads):\n",
        cfg.cell
    ));
    report.push_str(&format!(
        "  escrow {hi}t / escrow 1t  = {escrow8:>9.0} / {escrow1:>9.0} = {self_scale:.2}x \
         (need >= 1.30x, {})\n",
        if scale_enforced {
            if scale_ok { "PASS" } else { "FAIL" }
        } else {
            "informational: < 4 cores"
        }
    ));
    report.push_str(&format!(
        "  escrow {hi}t / xlock {hi}t  = {escrow8:>9.0} / {xlock8:>9.0} = {gap:.2}x \
         (need >= 2.00x, {})\n",
        if gap_ok { "PASS" } else { "FAIL" }
    ));
    report.push_str(&format!(
        "  pipeline / strict serial @50us sync = {:>9.0} / {:>9.0} = {:.2}x \
         (need >= {:.2}x, {})\n",
        sync_gate.pipelined,
        sync_gate.serial,
        sync_gate.ratio,
        sync_gate.threshold,
        if sync_gate.pass { "PASS" } else { "FAIL" }
    ));
    report.push_str(if pass { "smoke-scale: PASS\n" } else { "smoke-scale: FAIL\n" });
    (report, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke-run every experiment at minimal duration; correctness
    /// assertions live inside the experiment functions.
    #[test]
    fn all_experiments_smoke() {
        let cfg = ExpConfig { cell: Duration::from_millis(120), max_threads: 4 };
        for (name, table) in [
            ("e1", e1(&cfg)),
            ("e2", e2(&cfg)),
            ("e3", e3(&cfg)),
            ("e4", e4(&cfg)),
            ("e5", e5(&cfg)),
            ("e6", e6(&cfg)),
            ("e7", e7(&cfg)),
            ("e8", e8(&cfg)),
        ] {
            assert!(!table.is_empty(), "{name} produced rows");
        }
    }

    #[test]
    fn e11_reports_percentiles_for_both_modes() {
        let cfg = ExpConfig { cell: Duration::from_millis(80), max_threads: 2 };
        assert_eq!(e11(&cfg).len(), 2);
    }

    #[test]
    fn metrics_demo_shows_layered_metrics() {
        let cfg = ExpConfig { cell: Duration::from_millis(80), max_threads: 2 };
        let report = metrics_demo(&cfg);
        for name in ["txn.commits", "lock.acquired", "wal.sync_us", "pool.hits", "engine.escrow_applies"]
        {
            assert!(report.contains(name), "metrics report missing {name}:\n{report}");
        }
    }
}
