//! The four workloads and what they share: timing windows, raw latency
//! samples, the in-process transaction shapes, the fixed-work phase with
//! its crash-recovery gate, and the per-layer ledger read from the
//! program's own public counters.
//!
//! A workload records a metric whether or not `spec.rs` assigns it to that
//! workload; `main` prints and files the assigned ones. The driver's result
//! line has to carry every end-to-end metric on every workload, so each
//! workload also takes, on its quiet database, the reads and scans its own
//! loop does not make, and runs the fixed-work phase.

pub mod cold_pool;
pub mod hot_escrow;
pub mod htap_scan;
pub mod tcp_oltp;

use crate::spec;
use crate::stats::{median, percentile};
use crate::trace::{summarize, TraceSummary, Tracer};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use txview_common::obs::Snapshot;
use txview_common::rng::Rng;
use txview_common::{Error, Result, Row, Value};
use txview_engine::IsolationLevel;
use txview_wal::recovery::RecoveryReport;
use txview_workload::bank::{Bank, VIEW};

/// One workload: its declared name, its warm-up, its entry point.
pub struct Entry {
    pub name: &'static str,
    /// Discarded lead-in. `htap-scan` needs 5 s: scans slow down for the
    /// first ~3 s while version chains form.
    pub warmup: Duration,
    pub run: fn(&Ctx) -> Result<Outcome>,
}

/// The workloads in the order `spec::WORKLOADS` declares them.
pub const ALL: [Entry; 4] = [
    Entry {
        name: "tcp-oltp",
        warmup: Duration::from_secs(3),
        run: tcp_oltp::run,
    },
    Entry {
        name: "hot-escrow",
        warmup: Duration::from_secs(3),
        run: hot_escrow::run,
    },
    Entry {
        name: "htap-scan",
        warmup: Duration::from_secs(5),
        run: htap_scan::run,
    },
    Entry {
        name: "cold-pool",
        warmup: Duration::from_secs(3),
        run: cold_pool::run,
    },
];

/// In a traced run the timed window is cut into slices of this length and
/// every fifth slice is traced. Traced and untraced requests then see the
/// same database state, so their latency ratio is the tracing overhead and
/// not drift; a fifth keeps the span file of the busiest workload near
/// half a million spans.
const SLICE: Duration = Duration::from_millis(100);

/// Length of the bins a timed window's samples are grouped into.
const BIN: Duration = Duration::from_millis(250);

/// Does an operation starting `at_ns` into the window fall in a traced slice?
fn in_traced_slice(at_ns: u64) -> bool {
    (u128::from(at_ns) / SLICE.as_nanos()) % 5 == 4
}

/// Checkpoint period inside a timed window (one generator thread calls
/// `checkpoint()` between two of its transactions).
const CHECKPOINT_EVERY: Duration = Duration::from_secs(5);

/// Attempts per transaction before it counts as failed.
const MAX_ATTEMPTS: u32 = 5;

/// Balance delta of the transactions the fixed-work phase leaves uncommitted;
/// large enough that a surviving one cannot hide among real deposits.
const LOSER_DELTA: i64 = 1_000_003;

/// What one invocation was asked to do.
pub struct Ctx {
    pub seed: u64,
    /// Discarded lead-in before the timed window.
    pub warmup: Duration,
    /// The timed window.
    pub window: Duration,
    /// Record spans (and report per-layer metrics) instead of end-to-end ones.
    pub traced: bool,
    /// 1 s windows and small fixed work: exercises every code path quickly.
    pub smoke: bool,
    /// Zero of every span time in this process.
    pub epoch: Instant,
}

impl Ctx {
    /// Fixed-work size: `full` normally, a sixteenth of it in smoke runs.
    pub fn work(&self, full: usize) -> usize {
        if self.smoke {
            (full / 16).max(8)
        } else {
            full
        }
    }

    /// Is the operation starting at `at` (time since window start) traced?
    pub fn traced_at(&self, at: Duration) -> bool {
        self.traced && in_traced_slice(at.as_nanos() as u64)
    }

    /// Checkpoint period: 5 s, or a third of a window shorter than 15 s, so
    /// that every window holds two checkpoints.
    pub fn checkpoint_every(&self) -> Duration {
        CHECKPOINT_EVERY.min(self.window / 3)
    }

    /// A tracer that records nothing, for calls outside the timed window.
    pub fn untraced(&self) -> Tracer {
        Tracer::new(self.epoch, 0, false)
    }
}

/// What one invocation found.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Sample count behind each latency metric family.
    pub samples: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate failures; empty means every gate passed.
    pub gate_errors: Vec<String>,
    /// Latency families whose first and second half-window medians differ
    /// by more than a tenth.
    pub unsettled: Vec<String>,
    /// Per-bin values behind the window metrics, for the result file.
    pub series: BTreeMap<String, Vec<f64>>,
    /// `tcp-oltp` only: commit p50 at its lowest rate step.
    pub unloaded_commit_p50_us: Option<f64>,
    pub tracers: Vec<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn gate(&mut self, what: &str, result: Result<()>) {
        if let Err(e) = result {
            self.gate_errors.push(format!("{what}: {e}"));
        }
    }
}

/// Raw latency samples: `(start offset in the window, latency)`, both ns.
#[derive(Default)]
pub struct Samples(pub Vec<(u64, u64)>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, at: Duration, latency: Duration) {
        self.0
            .push((at.as_nanos() as u64, latency.as_nanos() as u64));
    }

    pub fn merged(parts: impl IntoIterator<Item = Samples>) -> Samples {
        Samples(parts.into_iter().flat_map(|s| s.0).collect())
    }

    fn sorted(&self, keep: impl Fn(u64) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .0
            .iter()
            .filter(|(at, _)| keep(*at))
            .map(|(_, l)| *l)
            .collect();
        v.sort_unstable();
        v
    }

    /// Latencies in ascending order.
    pub fn latencies(&self) -> Vec<u64> {
        self.sorted(|_| true)
    }

    /// Percentile in microseconds.
    pub fn us(sorted: &[u64], p: f64) -> f64 {
        percentile(sorted, p) as f64 / 1000.0
    }

    /// `stat` of each bin of the window, in order (bins without a sample
    /// are left out). Operations are binned by their start.
    pub fn per_bin(&self, window: Duration, stat: impl Fn(&[u64]) -> f64) -> Vec<f64> {
        let n = (window.as_nanos() / BIN.as_nanos()).max(1) as usize;
        let mut bins: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &(at, latency) in &self.0 {
            bins[((u128::from(at) / BIN.as_nanos()) as usize).min(n - 1)].push(latency);
        }
        bins.iter_mut()
            .filter(|b| !b.is_empty())
            .map(|b| {
                b.sort_unstable();
                stat(b)
            })
            .collect()
    }

    /// Settle check: do the medians of the two halves of the window agree
    /// within a tenth? (This is what catches a version-chain ramp.)
    pub fn settled(&self, window: Duration) -> bool {
        let half = window.as_nanos() as u64 / 2;
        let (a, b) = (self.sorted(|at| at < half), self.sorted(|at| at >= half));
        if a.is_empty() || b.is_empty() {
            return false;
        }
        let (ma, mb) = (percentile(&a, 50.0) as f64, percentile(&b, 50.0) as f64);
        (ma - mb).abs() <= 0.1 * ma.max(mb)
    }

    /// Median latency of traced slices over that of untraced slices, − 1.
    /// `None` when either kind of slice holds no sample.
    pub fn trace_overhead(&self) -> Option<f64> {
        let (t, u) = (
            self.sorted(in_traced_slice),
            self.sorted(|at| !in_traced_slice(at)),
        );
        if t.is_empty() || u.is_empty() {
            return None;
        }
        Some(percentile(&t, 50.0) as f64 / percentile(&u, 50.0) as f64 - 1.0)
    }
}

/// Record a latency family of the timed window. `<family>_p25_us` is the
/// exact lower quartile of the window's *low-decile bin*: the 250 ms bins
/// ordered by their p25, the one a tenth of the way up.
///
/// Not the p50, and not the whole window, because on the reference host
/// neither repeats. Over TCP a request is answered by a fast or a slow
/// wake-up path, a coin the machine tosses per request with odds that
/// drift: the p50 of `tcp-oltp`'s reads is 24 us or 52 us depending on
/// which side of a half the slow ones fall, while the lower quartile stays
/// on the fast path. Two contending threads run at one of two speeds for
/// seconds at a time: the whole window mixes them in a share that differs
/// from run to run, while a tenth of its bins at the fast speed is enough
/// for the low-decile bin (and the freak bins a minimum would pick, in
/// which one thread was off the processor, are skipped). `BASELINE.md` has
/// the spreads of each choice; the driver refuses a metric that spreads by
/// more than its bound. What this hides — the slow path, a periodic stall
/// — is in the whole-window p50, p95 and p99, which go to the per-layer
/// `client.<family>_*` metrics, and in the per-bin series in the result
/// file. Also records the sample count and the settle verdict.
pub fn report_latency(out: &mut Outcome, window: Duration, family: &str, s: &Samples) {
    out.samples.insert(family.to_string(), s.0.len() as u64);
    if s.0.is_empty() {
        out.gate_errors
            .push(format!("{family}: no samples in the timed window"));
        return;
    }
    let name = format!("{family}_p25_us");
    let series = s.per_bin(window, |sorted| Samples::us(sorted, 25.0));
    out.set(&name, decile_bin(&series, 0.1));
    out.series.insert(name, series);
    out.series.insert(
        format!("{family}_p50_us"),
        s.per_bin(window, |sorted| Samples::us(sorted, 50.0)),
    );
    let sorted = s.latencies();
    for p in [50.0, 95.0, 99.0] {
        let name = format!("client.{family}_p{p}_us");
        if spec::unit_of(&name).is_some() {
            out.set(&name, Samples::us(&sorted, p));
        }
    }
    if !s.settled(window) {
        out.unsettled.push(family.to_string());
    }
}

/// The value `share` of the way up the ascending per-bin values.
fn decile_bin(series: &[f64], share: f64) -> f64 {
    let mut v = series.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() - 1) as f64 * share).round() as usize]
}

/// `ops_per_s` of a closed loop: completions in the window's high-decile
/// bin (operations are binned by their start) over the bin's length, for
/// the reason `report_latency` gives. An open loop reports its achieved
/// rate over the whole window instead.
pub fn report_closed_loop_rate(out: &mut Outcome, window: Duration, completed: &[&Samples]) {
    let all = Samples(completed.iter().flat_map(|s| s.0.iter().copied()).collect());
    let series = all.per_bin(window, |ops| ops.len() as f64 / BIN.as_secs_f64());
    out.set("ops_per_s", decile_bin(&series, 0.9));
    out.series.insert("ops_per_s".into(), series);
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Branch an account belongs to (`Bank` lays accounts out round-robin).
pub fn branch_of(bank: &Bank, account: i64) -> usize {
    (account % bank.cfg.branches) as usize
}

/// The account row with `delta` added to its balance.
fn deposited(row: &Row, delta: i64) -> Row {
    let mut out = row.clone();
    let balance = row.get(2).as_int().expect("balance is INT");
    out.set(2, Value::Int(balance + delta));
    out
}

/// One deposit transaction: `begin`, one `update_with` per `(account,
/// delta)`, `commit`, retried on the errors the protocol expects a client
/// to retry. Returns the retries it took; `Err` means it failed for good.
/// On success the deltas are added to `acked`, the ledger the correctness
/// gates compare the view with.
pub fn deposit_txn(
    bank: &Bank,
    tracer: &mut Tracer,
    traced: bool,
    updates: &[(i64, i64)],
    acked: &mut [i64],
) -> Result<u32> {
    let db = &bank.db;
    let mut retries = 0;
    loop {
        let root = tracer.root(traced, "txn");
        let mut txn = tracer.child(root, "begin", || db.begin(IsolationLevel::ReadCommitted));
        let mut result = Ok(());
        for &(account, delta) in updates {
            result = tracer.child(root, "update_with", || {
                db.update_with(&mut txn, "accounts", &[Value::Int(account)], |r| {
                    deposited(r, delta)
                })
            });
            if result.is_err() {
                break;
            }
        }
        let result = result.and_then(|()| tracer.child(root, "commit", || db.commit(&mut txn)));
        tracer.close(root);
        match result {
            Ok(_) => {
                for &(account, delta) in updates {
                    acked[branch_of(bank, account)] += delta;
                }
                return Ok(retries);
            }
            Err(e) => {
                if txn.is_active() {
                    db.rollback(&mut txn)?;
                }
                retries += 1;
                if !e.is_retryable() || retries >= MAX_ATTEMPTS {
                    return Err(e);
                }
            }
        }
    }
}

/// `checkpoint()`, as a span of its own.
pub fn checkpoint(bank: &Bank, tracer: &mut Tracer, traced: bool) -> Result<()> {
    let root = tracer.root(traced, "checkpoint_call");
    let done = tracer.child(root, "checkpoint", || bank.db.checkpoint());
    tracer.close(root);
    done.map(|_| ())
}

/// Add one generator's acknowledged deltas to the run's ledger.
pub fn add_acked(ledger: &mut [i64], part: &[i64]) {
    for (total, delta) in ledger.iter_mut().zip(part) {
        *total += delta;
    }
}

/// One read-committed point read of a view row, in its own transaction.
pub fn read_txn(bank: &Bank, tracer: &mut Tracer, traced: bool, branch: i64) -> Result<()> {
    let db = &bank.db;
    let root = tracer.root(traced, "read");
    let mut txn = tracer.child(root, "begin", || db.begin(IsolationLevel::ReadCommitted));
    let row = tracer.child(root, "view_lookup", || {
        db.view_lookup(&mut txn, VIEW, &[Value::Int(branch)])
    });
    let done = tracer.child(root, "commit", || db.commit(&mut txn));
    tracer.close(root);
    match row.and_then(|r| done.map(|_| r)) {
        Ok(Some(_)) => Ok(()),
        Ok(None) => Err(Error::NotFound(format!("view row of branch {branch}"))),
        Err(e) => {
            if txn.is_active() {
                db.rollback(&mut txn)?;
            }
            Err(e)
        }
    }
}

/// One Snapshot `view_scan` over branches `[lo, hi)` in its own transaction
/// (`None` = the whole view); checks the row count.
pub fn scan_txn(
    bank: &Bank,
    tracer: &mut Tracer,
    traced: bool,
    range: Option<(i64, i64)>,
) -> Result<()> {
    let db = &bank.db;
    let (name, call, want) = match range {
        None => ("scan", "view_scan", bank.cfg.branches),
        Some((lo, hi)) => ("range_scan", "view_range_scan", hi - lo),
    };
    let root = tracer.root(traced, name);
    let mut txn = tracer.child(root, "begin", || db.begin(IsolationLevel::Snapshot));
    let rows = tracer.child(root, call, || match range {
        None => db.view_scan(&mut txn, VIEW, None, None),
        Some((lo, hi)) => db.view_scan(
            &mut txn,
            VIEW,
            Some(&[Value::Int(lo)]),
            Some(&[Value::Int(hi)]),
        ),
    });
    let done = tracer.child(root, "commit", || db.commit(&mut txn));
    tracer.close(root);
    match rows.and_then(|r| done.map(|_| r)) {
        Ok(rows) if rows.len() as i64 == want => Ok(()),
        Ok(rows) => Err(Error::corruption(format!(
            "{name} returned {} rows, expected {want}",
            rows.len()
        ))),
        Err(e) => {
            if txn.is_active() {
                db.rollback(&mut txn)?;
            }
            Err(e)
        }
    }
}

/// Groups one range scan covers (the whole view when it is smaller).
pub const RANGE_GROUPS: i64 = 256;

/// A seeded `[lo, hi)` range of `RANGE_GROUPS` branches.
pub fn pick_range(bank: &Bank, rng: &mut Rng) -> (i64, i64) {
    let span = RANGE_GROUPS.min(bank.cfg.branches);
    let lo = rng.below((bank.cfg.branches - span + 1) as u64) as i64;
    (lo, lo + span)
}

/// Time `n` calls of `op`; returns the latencies (offsets count from the
/// first call) or the first error.
pub fn timed_calls(n: usize, mut op: impl FnMut() -> Result<()>) -> Result<Samples> {
    let mut s = Samples::with_capacity(n);
    let started = Instant::now();
    for _ in 0..n {
        let t = Instant::now();
        op()?;
        s.push(t.duration_since(started), t.elapsed());
    }
    Ok(s)
}

/// How many point reads and scans a workload takes on its quiet, just
/// recovered database (no version chains yet, so a scan costs the same on
/// every run) because its timed loop does not make that call. `spec.rs`
/// does not assign these metrics to the workload; they are measured because
/// the driver's result line must carry every end-to-end metric on every
/// workload, and a time may not be a constant. They are spread evenly over
/// the repeats of the fixed-work phase, and the fastest batch's p25 counts.
pub struct QuietReads {
    pub reads: usize,
    pub scans: usize,
    pub range_scans: usize,
}

fn quiet_reads(out: &mut Outcome, ctx: &Ctx, bank: &Bank, plan: &QuietReads, batches: usize) {
    let mut rng = Rng::new(ctx.seed ^ 0x1d1e);
    let mut tracer = ctx.untraced();
    let branches = bank.cfg.branches as u64;
    let mut run = |family: &str, n: usize, op: &mut dyn FnMut(&mut Rng) -> Result<()>| {
        if n == 0 {
            return;
        }
        match timed_calls(ctx.work(n) / batches, || op(&mut rng)) {
            Ok(s) => {
                let sorted = s.latencies();
                *out.samples
                    .entry(format!("{family} (quiet database)"))
                    .or_default() += sorted.len() as u64;
                let (name, p25) = (format!("{family}_p25_us"), Samples::us(&sorted, 25.0));
                let fastest = out.metrics.get(&name).map_or(p25, |&v| v.min(p25));
                out.set(&name, fastest);
            }
            Err(e) => out.gate_errors.push(format!("quiet {family}: {e}")),
        }
    };
    run("read", plan.reads, &mut |rng| {
        read_txn(bank, &mut tracer, false, rng.below(branches) as i64)
    });
    run("scan", plan.scans, &mut |_| {
        scan_txn(bank, &mut tracer, false, None)
    });
    run("range_scan", plan.range_scans, &mut |rng| {
        let range = pick_range(bank, rng);
        scan_txn(bank, &mut tracer, false, Some(range))
    });
}

/// What the fixed-work phase measured.
pub struct FixedWork {
    pub wal_bytes_per_commit: f64,
    pub recovery_s: f64,
    pub report: RecoveryReport,
}

/// The fixed-work phase, on one thread, on the freshly set-up database:
/// write every dirty page back and checkpoint; `txns` deposit transactions
/// of `updates_per_txn` updates each; two more transactions left
/// uncommitted with their escrow deltas applied and their log records
/// forced by later commits; `crash_and_recover`, timed.
///
/// Log volume and recovery work are the same on every run.
/// `crash_and_recover` discards the unflushed log tail and every dirty page
/// it does not steal, so what `verify` reads back afterwards comes only
/// from what was durable.
fn fixed_work(
    ctx: &Ctx,
    bank: &Bank,
    txns: usize,
    updates_per_txn: usize,
    acked: &mut [i64],
) -> Result<FixedWork> {
    let db = &bank.db;
    let mut tracer = ctx.untraced();
    // The checkpoint is fuzzy: without the write-back, redo would start at
    // the oldest page the set-up dirtied.
    db.pool().flush_all()?;
    db.checkpoint()?;

    let mut rng = Rng::new(ctx.seed ^ 0xe911);
    let txns = ctx.work(txns);
    let losers_at = txns.saturating_sub(8);
    let mut losers = Vec::new();
    let bytes_before = db.log().appended_bytes();
    let mut loser_bytes = 0;
    let mut updates = Vec::with_capacity(updates_per_txn);
    for i in 0..txns {
        if i == losers_at {
            // Accounts 0 and 1 stay X-locked by the losers from here on;
            // every transaction after them draws from the others.
            let before = db.log().appended_bytes();
            for account in 0..2 {
                let mut txn = db.begin(IsolationLevel::ReadCommitted);
                db.update_with(&mut txn, "accounts", &[Value::Int(account)], |r| {
                    deposited(r, LOSER_DELTA)
                })?;
                losers.push(txn);
            }
            loser_bytes = db.log().appended_bytes() - before;
        }
        updates.clear();
        while updates.len() < updates_per_txn {
            let account = rng.below(bank.cfg.accounts as u64) as i64;
            if account >= 2 && !updates.iter().any(|&(a, _)| a == account) {
                updates.push((account, rng.range_inclusive(1, 9)));
            }
        }
        updates.sort_unstable();
        deposit_txn(bank, &mut tracer, false, &updates, acked)?;
    }
    let bytes = db.log().appended_bytes() - bytes_before - loser_bytes;

    let t = Instant::now();
    let report = db.crash_and_recover(0.5, ctx.seed)?;
    let recovery_s = t.elapsed().as_secs_f64();
    drop(losers);
    Ok(FixedWork {
        wal_bytes_per_commit: bytes as f64 / txns as f64,
        recovery_s,
        report,
    })
}

/// The correctness gate every workload ends with: each view equals its
/// recomputation from base, and each branch's SUM equals the initial money
/// plus every acknowledged delta — so no acknowledged commit is missing and
/// nothing unacknowledged (the losers' `LOSER_DELTA`) is visible.
pub fn verify(bank: &Bank, acked: &[i64]) -> Result<()> {
    bank.verify()?;
    let db = &bank.db;
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let rows = db.view_scan(&mut txn, VIEW, None, None)?;
    db.commit(&mut txn)?;
    if rows.len() != acked.len() {
        return Err(Error::corruption(format!(
            "view has {} rows, expected {}",
            rows.len(),
            acked.len()
        )));
    }
    let per_branch = bank.cfg.accounts / bank.cfg.branches;
    for row in &rows {
        let branch = row.get(0).as_int()?;
        let (count, sum) = (row.get(1).as_int()?, row.get(2).as_int()?);
        let want = per_branch * bank.cfg.initial_balance + acked[branch as usize];
        if count != per_branch || sum != want {
            return Err(Error::corruption(format!(
                "branch {branch}: COUNT {count} SUM {sum}, acknowledged commits give COUNT {per_branch} SUM {want}"
            )));
        }
    }
    Ok(())
}

/// What a workload sets up: a bank, on `tcp-oltp` with a server and its
/// connections in front of it.
pub trait Rig {
    fn bank(&self) -> &Bank;
    /// Tear down a rig that is not going to be used (a repeated set-up).
    fn discard(self);
}

impl Rig for Bank {
    fn bank(&self) -> &Bank {
        self
    }

    fn discard(self) {}
}

/// A workload's database, set up and taken through the fixed-work phase.
pub struct Prepared<T> {
    /// What `build` returned.
    pub rig: T,
    /// Acknowledged deltas per branch so far; the window's commits are
    /// added to it.
    pub acked: Vec<i64>,
}

/// How often a workload sets up and runs the fixed-work phase; one whose
/// first set-up takes longer than `LONG_SETUP` (`cold-pool`: seconds) does
/// it once. The count does not depend on how fast the host is that minute,
/// so the process's peak memory does not either.
const REPEATS: usize = 5;
const LONG_SETUP: Duration = Duration::from_secs(1);

/// How every workload starts: set-up and the fixed-work phase, `REPEATS`
/// times over, each time on a database built from nothing. The
/// repeats do identical work, so `setup_s` is the median of the set-up
/// times and `recovery_s` the *fastest* `crash_and_recover` — noise on a
/// shared host only ever adds time; each repeat also takes its share of the
/// quiet reads on its recovered database. The last database is kept: it
/// goes through the gates after its crash, `peak_rss_mb` is read, and the
/// timed window then runs on it.
///
/// The fixed-work phase comes *before* the timed part so that `recovery_s`
/// and `peak_rss_mb` cover only fixed work — set-up, a fixed number of
/// transactions, recovery. After the timed window instead, both would
/// follow the log that window wrote (recovery reads the whole durable log,
/// and the log store is in memory), and on a closed-loop workload a faster
/// engine would show a slower recovery and a larger footprint.
pub fn prepare<T: Rig>(
    out: &mut Outcome,
    ctx: &Ctx,
    mut build: impl FnMut() -> Result<T>,
    (txns, updates_per_txn): (usize, usize),
    quiet: &QuietReads,
) -> Result<Prepared<T>> {
    let (mut setups, mut recoveries) = (Vec::new(), Vec::new());
    loop {
        let t = Instant::now();
        let rig = build()?;
        setups.push(t.elapsed().as_secs_f64());
        let bank = rig.bank();
        let mut acked = vec![0i64; bank.cfg.branches as usize];
        let work = fixed_work(ctx, bank, txns, updates_per_txn, &mut acked)?;
        recoveries.push(work.recovery_s);
        if work.report.losers != 2 {
            out.gate_errors.push(format!(
                "recovery rolled back {} losers, expected 2",
                work.report.losers
            ));
        }
        let repeats = if setups[0] < LONG_SETUP.as_secs_f64() {
            REPEATS
        } else {
            1
        };
        quiet_reads(out, ctx, bank, quiet, repeats);
        if setups.len() < repeats {
            rig.discard();
            continue;
        }
        out.gate("after crash_and_recover", verify(bank, &acked));
        out.set("setup_s", median(&setups));
        out.set(
            "recovery_s",
            recoveries.iter().copied().fold(f64::INFINITY, f64::min),
        );
        out.set("wal_bytes_per_commit", work.wal_bytes_per_commit);
        out.set("wal.recovery.analysis_us", work.report.analysis_us as f64);
        out.set("wal.recovery.redo_us", work.report.redo_us as f64);
        out.set("wal.recovery.undo_us", work.report.undo_us as f64);
        out.set("wal.recovery.redo_applied", work.report.redo_applied as f64);
        out.set(
            "wal.recovery.logical_undos",
            work.report.logical_undos as f64,
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(Prepared { rig, acked });
    }
}

/// What every workload does once its timed window is over: the gate on the
/// database, and — in a traced run — the metrics read off the spans.
/// `tracers` are the generator threads' span buffers; `acked` is what the
/// commits since set-up acknowledged, per branch.
pub fn wrap_up(out: &mut Outcome, ctx: &Ctx, bank: &Bank, tracers: Vec<Tracer>, acked: &[i64]) {
    out.gate("after the timed window", verify(bank, acked));
    if ctx.traced {
        out.set(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        span_metrics(out, &tracers, bank.cfg.branches);
    }
    out.tracers = tracers;
}

/// Deltas of the program's own public counters and histograms between two
/// snapshots. A name the program no longer exports is remembered, and is a
/// gate failure: a renamed counter must not read as "nothing happened".
struct Deltas<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
    missing: RefCell<Vec<String>>,
}

impl Deltas<'_> {
    fn counter(&self, name: &str) -> f64 {
        match (
            self.before.counter_value(name),
            self.after.counter_value(name),
        ) {
            (Some(b), Some(a)) => a.saturating_sub(b) as f64,
            _ => {
                self.missing.borrow_mut().push(name.to_string());
                0.0
            }
        }
    }

    /// `(Δsum, Δcount)` of a histogram.
    fn hist(&self, name: &str) -> (f64, f64) {
        match (self.before.hist_value(name), self.after.hist_value(name)) {
            (Some(b), Some(a)) => (
                a.sum.saturating_sub(b.sum) as f64,
                a.count().saturating_sub(b.count()) as f64,
            ),
            _ => {
                self.missing.borrow_mut().push(name.to_string());
                (0.0, 0.0)
            }
        }
    }
}

/// The per-layer ledger: deltas of the program's own public counters over
/// the timed window. Histogram *sums* are exact, so time per commit is
/// `Δsum ÷ Δcommits`; bucket quantiles are not used. `commits` is every
/// transaction the engine committed in the window, readers included;
/// `ops` is the operations the generator completed. The commit pipeline
/// exports its counters only where it is switched on (`pipeline`).
pub fn ledger(out: &mut Outcome, before: &Snapshot, after: &Snapshot, ops: u64, pipeline: bool) {
    let d = Deltas {
        before,
        after,
        missing: RefCell::default(),
    };
    // A ratio with nothing below the line (no eviction in a pool that fits)
    // is not a measurement and is left unset.
    let mut per = |name: &str, x: f64, n: f64| {
        if n > 0.0 {
            out.set(name, x / n);
        }
    };
    let commits = d.counter("txn.commits");
    let ops = ops as f64;

    for phase in ["acquire", "maintain", "log_force", "commit"] {
        let (sum, _) = d.hist(&format!("txn.phase.{phase}_us"));
        per(&format!("txn.phase.{phase}_us_per_commit"), sum, commits);
    }
    per("txn.rollbacks", d.counter("txn.rollbacks"), 1.0);
    if pipeline {
        let (batch_sum, batches) = d.hist("txn.pipeline.batch_commits");
        per("txn.pipeline.batch_mean", batch_sum, batches);
        per(
            "txn.pipeline.syncs_per_commit",
            d.counter("txn.pipeline.leader_syncs"),
            commits,
        );
        let (park_sum, parks) = d.hist("txn.pipeline.park_to_wake_us");
        per("txn.pipeline.park_to_wake_us_mean", park_sum, parks);
    }

    let acquired = d.counter("lock.acquired");
    per("lock.acquired_per_commit", acquired, commits);
    per("lock.waited_frac", d.counter("lock.waited"), acquired);
    per(
        "lock.wait_e_us_per_commit",
        d.hist("lock.wait_us.e").0,
        commits,
    );
    per(
        "lock.wait_x_us_per_commit",
        d.hist("lock.wait_us.x").0,
        commits,
    );
    per(
        "lock.escrow_grants_per_commit",
        d.counter("lock.escrow_grants"),
        commits,
    );
    per(
        "lock.deadlock_victims",
        d.counter("lock.deadlock_victims"),
        1.0,
    );
    per("lock.timeouts", d.counter("lock.timeouts"), 1.0);

    let (hits, misses) = (d.counter("pool.hits"), d.counter("pool.misses"));
    per("storage.pool.hit_frac", hits, hits + misses);
    per("storage.pool.misses_per_op", misses, ops);
    let (scan_sum, scans) = d.hist("pool.evict_scan");
    per("storage.pool.evict_scan_mean", scan_sum, scans);
    per(
        "storage.pool.write_us_per_op",
        d.hist("pool.write_us").0,
        ops,
    );

    per(
        "wal.bytes_per_commit",
        d.counter("wal.appended_bytes"),
        commits,
    );
    per(
        "wal.records_per_commit",
        d.counter("wal.appended_records"),
        commits,
    );
    per(
        "wal.append_us_per_commit",
        d.hist("wal.append_us").0,
        commits,
    );
    let (sync_sum, syncs) = d.hist("wal.sync_us");
    per("wal.sync_us_per_commit", sync_sum, commits);
    per("wal.syncs_per_commit", syncs, commits);

    per(
        "view.graph.refreshes_per_commit",
        d.counter("view.graph.refreshes"),
        commits,
    );
    per(
        "view.graph.coalesce_hit_frac",
        d.counter("view.graph.coalesce_hits"),
        d.counter("view.graph.enqueues"),
    );

    per(
        "engine.escrow_applies_per_commit",
        d.counter("engine.escrow_applies"),
        commits,
    );
    match after.gauge_value("engine.ghost_backlog") {
        Some(backlog) => out.set("engine.ghost_backlog", backlog as f64),
        None => d.missing.borrow_mut().push("engine.ghost_backlog".into()),
    }
    for name in d.missing.into_inner() {
        out.gate_errors
            .push(format!("the program no longer exports {name}"));
    }
}

/// Per-layer metrics read off the benchmark's own spans: medians of the
/// calls made in the traced slices of the timed window. A call the workload
/// does not make sets nothing.
fn span_metrics(out: &mut Outcome, tracers: &[Tracer], scan_rows: i64) {
    let TraceSummary {
        p50_ns,
        count,
        remainder_frac,
    } = summarize(tracers);
    for (span, metric, per) in [
        ("begin", "txn.begin_ns", 1.0),
        ("commit", "txn.commit_call_us", 1e3),
        ("update_with", "engine.update_with_us", 1e3),
        ("view_lookup", "engine.view_lookup_us", 1e3),
        (
            "view_scan",
            "engine.view_scan_us_per_row",
            1e3 * scan_rows as f64,
        ),
        ("checkpoint", "engine.checkpoint_us", 1e3),
    ] {
        if let Some(&ns) = p50_ns.get(span) {
            out.set(metric, ns as f64 / per);
        }
    }
    if let Some(frac) = remainder_frac {
        out.set("trace.remainder_frac", frac);
    }
    for (name, n) in count {
        out.samples.insert(format!("span {name}"), n);
    }
}
