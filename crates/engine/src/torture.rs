//! Crash-torture harness: deterministic fault-injection episodes with a
//! recovery oracle.
//!
//! One **episode** builds a database over a [`FaultDisk`] + [`FaultLogStore`]
//! sharing a [`FaultClock`], runs a mixed committed/uncommitted workload
//! (a ledger-audited bank plus group-churn, in either escrow or X-lock
//! maintenance mode), lets the armed fault schedule crash it at a chosen
//! event, reboots onto the frozen durable image through ARIES recovery,
//! and interrogates the **oracle**:
//!
//! * every indexed view equals recomputation from its base table;
//! * every *acknowledged* commit (commit returned before the crash fired)
//!   survives — checked against a ledger table that records each transfer;
//! * account balances equal the initial load plus a replay of the durable
//!   ledger (so no transaction is ever half-applied, and no loser's delta
//!   survives);
//! * recovery is idempotent — a second crash+recovery applies zero redo
//!   and finds zero losers;
//! * leftover ghosts are cleanable, and cleanup preserves all of the above.
//!
//! A **sweep** measures the fault-free event horizon of the workload, then
//! replays the identical episode once per crash point. Everything is a pure
//! function of the seed: the same seed yields the same schedule, the same
//! crash points, and the same pass/fail outcome.

use crate::catalog::{AggSpec, MaintenanceMode, Predicate, ViewSource, ViewSpec};
use crate::db::{Database, GhostCleanupReport, ResilienceStats};
use crate::health::HealthState;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use txview_common::retry::RetryPolicy;
use txview_common::rng::Rng;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Error, Result, Row, Value};
use txview_storage::fault::{
    FaultClock, FaultDisk, FaultPoint, FaultSchedule, FaultStatsSnapshot,
};
use txview_txn::IsolationLevel;
use txview_wal::recovery::RecoveryReport;
use txview_wal::FaultLogStore;

/// Bank view name (mirrors the workload crate's bank).
pub const BANK_VIEW: &str = "branch_balance";
/// Churn view name.
pub const CHURN_VIEW: &str = "group_totals";
/// Terminal view of the derived chain (global rollup over the bank view).
pub const CHAIN_TOTAL_VIEW: &str = "bank_total";
/// MIN/MAX/AVG stats view over the `readings` table (only built when
/// [`TortureConfig::minmax`] is set).
pub const MINMAX_VIEW: &str = "reading_stats";

/// Names of the derived chain views, shallowest first: `chain_depth - 1`
/// identity levels over [`BANK_VIEW`], then the global [`CHAIN_TOTAL_VIEW`].
pub fn chain_view_names(chain_depth: usize) -> Vec<String> {
    (1..=chain_depth)
        .map(|d| {
            if d == chain_depth {
                CHAIN_TOTAL_VIEW.to_string()
            } else {
                format!("bank_chain_{d}")
            }
        })
        .collect()
}

/// Torture workload parameters. Defaults are sized so one episode runs in
/// milliseconds while still exercising splits, ghosts, and evictions.
#[derive(Clone, Debug)]
pub struct TortureConfig {
    /// Bank accounts (ids 0..accounts).
    pub accounts: i64,
    /// Branches (= bank view rows = escrow contention points).
    pub branches: i64,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// Single-row churn groups (ids 0..groups; even ones pre-populated).
    pub churn_groups: i64,
    /// Transactions attempted by the workload.
    pub txns: usize,
    /// View maintenance protocol under test.
    pub mode: MaintenanceMode,
    /// Buffer-pool pages (small, to force evictions through the
    /// WAL-before-data window).
    pub pool_pages: usize,
    /// Workload RNG seed; with the schedule, fully determines an episode.
    pub seed: u64,
    /// Route commits through the leader-based group-commit pipeline.
    pub pipeline: bool,
    /// Depth of the derived-view chain over the bank view (0 = none):
    /// `chain_depth - 1` identity levels, then a global rollup whose single
    /// row must always equal `accounts × initial_balance` (transfers
    /// conserve money) — the conservation invariant the chain oracle pins.
    pub chain_depth: usize,
    /// Build the MIN/MAX/AVG stats view over a `readings` table and mix
    /// extremum-deleting churn into the workload. Off by default so
    /// existing horizons and pinned schedules stay byte-identical.
    pub minmax: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            accounts: 32,
            branches: 4,
            initial_balance: 100,
            churn_groups: 8,
            txns: 36,
            mode: MaintenanceMode::Escrow,
            pool_pages: 64,
            seed: 1,
            pipeline: false,
            chain_depth: 0,
            minmax: false,
        }
    }
}

/// What one episode's workload acknowledged before the crash.
#[derive(Clone, Debug, Default)]
pub struct WorkloadTrace {
    /// Transactions attempted.
    pub attempted: usize,
    /// Transfers `(seq, from, to, amount)` whose commit returned *before*
    /// the crash fired — the durability contract covers exactly these.
    pub acked_transfers: Vec<(i64, i64, i64, i64)>,
    /// Commits acknowledged in total (transfers + churn).
    pub acked_commits: usize,
    /// Operations that failed at runtime (injected transient faults,
    /// duplicate-key races) and were rolled back.
    pub rolled_back: usize,
    /// Transactions abandoned in-flight (rollback itself failed); crash
    /// recovery must undo these as losers.
    pub abandoned: usize,
}

/// Outcome of one crash episode.
#[derive(Clone, Debug)]
pub struct EpisodeReport {
    /// The schedule the episode ran under.
    pub schedule: FaultSchedule,
    /// Clock counters at the end of the episode.
    pub fault_stats: FaultStatsSnapshot,
    /// Absolute event the crash fired at (None = schedule never fired).
    pub crash_event: Option<u64>,
    /// What the workload observed.
    pub trace: WorkloadTrace,
    /// First (real) recovery.
    pub recovery: RecoveryReport,
    /// Second recovery (idempotence check).
    pub second_recovery: RecoveryReport,
    /// Ghost-cleanup sweep after recovery.
    pub ghost_cleanup: GhostCleanupReport,
    /// Oracle violations; empty = the episode passed.
    pub violations: Vec<String>,
}

/// Outcome of a crash-point sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Fault-free event horizon of the workload window.
    pub horizon: u64,
    /// Episodes run.
    pub episodes: usize,
    /// Distinct absolute crash events exercised.
    pub crash_events: Vec<u64>,
    /// All violations, tagged with the crash offset that produced them.
    pub violations: Vec<(u64, String)>,
    /// Total acknowledged commits across episodes.
    pub acked_commits: usize,
    /// Total transactions recovery undid across episodes.
    pub losers_undone: u64,
}

pub(crate) struct Parts {
    pub(crate) clock: Arc<FaultClock>,
    pub(crate) disk: FaultDisk,
    pub(crate) store: FaultLogStore,
}

pub(crate) fn install_probes(db: &Database, clock: &Arc<FaultClock>) {
    let c = Arc::clone(clock);
    db.pool().set_crash_probe(Arc::new(move |p| {
        c.tick(FaultPoint::Probe(p));
    }));
    let c = Arc::clone(clock);
    db.log().set_crash_probe(Arc::new(move |p| {
        c.tick(FaultPoint::Probe(p));
    }));
}

/// Build the fault-injected database and load the initial state: bank
/// accounts, pre-populated even churn groups, an empty ledger, and a
/// checkpoint so every episode starts from the same durable image.
pub(crate) fn build(cfg: &TortureConfig) -> Result<(Arc<Database>, Parts)> {
    let clock = FaultClock::new();
    let disk = FaultDisk::new(Arc::clone(&clock));
    let store = FaultLogStore::new(Arc::clone(&clock));
    let db = Database::with_parts(
        Arc::new(disk.clone()),
        Box::new(store.clone()),
        cfg.pool_pages,
        Duration::from_secs(2),
    )?;
    install_probes(&db, &clock);
    // Metrics run on the fault clock's event counter: recorded "durations"
    // are event-count deltas, so identically-seeded episodes produce
    // identical snapshots. Wired before any DDL/load so no sample ever
    // comes from wall time.
    db.set_metrics_ticks(clock.events_handle());
    if cfg.pipeline {
        db.enable_commit_pipeline();
    }

    let accounts = db.create_table(
        "accounts",
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("branch", ValueType::Int),
                Column::new("balance", ValueType::Int),
            ],
            vec![0],
        )?,
    )?;
    db.create_indexed_view(ViewSpec {
        name: BANK_VIEW.into(),
        source: ViewSource::Single { table: accounts, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: cfg.mode,
        deferred: false,
        eager_group_delete: false,
    })?;
    // Derived chain over the bank view. The bank view's stored layout is
    // `[branch | COUNT_BIG | SUM(balance)]`, so group_by [0] + SumInt on
    // column 2 is an identity level; the terminal level rolls everything
    // into one global row.
    let names = chain_view_names(cfg.chain_depth);
    let mut chain_parent = BANK_VIEW.to_string();
    for (i, name) in names.iter().enumerate() {
        let last = i + 1 == names.len();
        let group_by = if last { vec![] } else { vec![0] };
        db.create_derived_view(
            name,
            &chain_parent,
            group_by,
            vec![AggSpec::SumInt { col: 2 }],
            cfg.mode,
        )?;
        chain_parent = name.clone();
    }
    let items = db.create_table(
        "items",
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("val", ValueType::Int),
            ],
            vec![0],
        )?,
    )?;
    db.create_indexed_view(ViewSpec {
        name: CHURN_VIEW.into(),
        source: ViewSource::Single { table: items, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: cfg.mode,
        deferred: false,
        eager_group_delete: false,
    })?;
    if cfg.minmax {
        let readings = db.create_table(
            "readings",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("grp", ValueType::Int),
                    Column::new("val", ValueType::Int),
                ],
                vec![0],
            )?,
        )?;
        // MIN/MAX force X-lock maintenance regardless of cfg.mode; AVG and
        // SUM ride along so one row exercises every aggregate kind at once.
        db.create_indexed_view(ViewSpec {
            name: MINMAX_VIEW.into(),
            source: ViewSource::Single { table: readings, group_by: vec![1] },
            aggs: vec![
                AggSpec::SumInt { col: 2 },
                AggSpec::Min { col: 2 },
                AggSpec::Max { col: 2 },
                AggSpec::Avg { col: 2, float: false },
            ],
            filter: Predicate::True,
            maintenance: MaintenanceMode::XLock,
            deferred: false,
            eager_group_delete: false,
        })?;
    }
    db.create_table(
        "ledger",
        Schema::new(
            vec![
                Column::new("seq", ValueType::Int),
                Column::new("src", ValueType::Int),
                Column::new("dst", ValueType::Int),
                Column::new("amount", ValueType::Int),
            ],
            vec![0],
        )?,
    )?;

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..cfg.accounts {
        db.insert(&mut txn, "accounts", row![i, i % cfg.branches, cfg.initial_balance])?;
    }
    for g in (0..cfg.churn_groups).step_by(2) {
        db.insert(&mut txn, "items", row![g, g, 7i64])?;
    }
    if cfg.minmax {
        // Three distinct values per group so the workload's extremal
        // deletes have a real MIN/MAX to retire from the very first txn.
        for g in 0..4i64 {
            for k in 0..3i64 {
                db.insert(&mut txn, "readings", row![g * 3 + k, g, 10 * (k + 1)])?;
            }
        }
    }
    db.commit(&mut txn)?;
    db.checkpoint()?;
    Ok((db, Parts { clock, disk, store }))
}

pub(crate) fn add_int(r: &Row, col: usize, d: i64) -> Row {
    let mut out = r.clone();
    let v = r.get(col).as_int().expect("INT column");
    out.set(col, Value::Int(v + d));
    out
}

pub(crate) fn do_transfer(
    db: &Database,
    txn: &mut txview_txn::Transaction,
    seq: i64,
    from: i64,
    to: i64,
    amount: i64,
) -> Result<()> {
    db.insert(txn, "ledger", row![seq, from, to, amount])?;
    db.update_with(txn, "accounts", &[Value::Int(from)], |r| add_int(r, 2, -amount))?;
    db.update_with(txn, "accounts", &[Value::Int(to)], |r| add_int(r, 2, amount))?;
    Ok(())
}

pub(crate) fn do_toggle(db: &Database, txn: &mut txview_txn::Transaction, g: i64) -> Result<()> {
    let pk = [Value::Int(g)];
    match db.delete(txn, "items", &pk) {
        Ok(()) => Ok(()),
        Err(Error::NotFound(_)) => match db.insert(txn, "items", row![g, g, 7i64]) {
            Ok(()) => Ok(()),
            Err(Error::DuplicateKey(_)) => db.delete(txn, "items", &pk),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

/// One reading op for the MIN/MAX workload: mostly inserts with random
/// values, plus deletes that alternate between the tracked extremum (the
/// stored MAX — forces the recompute-from-base fallback under its X lock)
/// and an arbitrary victim (the cheap keep-extrema path). `live` is the
/// workload's optimistic shadow of surviving rows; rollbacks desync it, so
/// deletes tolerate `NotFound` exactly like [`do_toggle`] does.
pub(crate) fn do_reading(
    db: &Database,
    txn: &mut txview_txn::Transaction,
    live: &mut Vec<(i64, i64)>,
    next_id: &mut i64,
    rng: &mut Rng,
) -> Result<()> {
    if live.is_empty() || rng.below(5) < 3 {
        let id = *next_id;
        *next_id += 1;
        let val = rng.range_inclusive(1, 99);
        db.insert(txn, "readings", row![id, id % 4, val])?;
        live.push((id, val));
        return Ok(());
    }
    let idx = if rng.below(2) == 0 {
        let mut best = 0usize;
        for (i, &(_, v)) in live.iter().enumerate() {
            if v > live[best].1 {
                best = i;
            }
        }
        best
    } else {
        rng.below(live.len() as u64) as usize
    };
    let (id, _) = live.remove(idx);
    match db.delete(txn, "readings", &[Value::Int(id)]) {
        Ok(()) | Err(Error::NotFound(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Run the deterministic single-threaded workload: two transfer
/// transactions, then one churn transaction, repeating. Injected faults
/// surface as errors → rollback; commits acknowledged while the clock has
/// not fired are recorded as the durability contract.
pub(crate) fn run_workload(db: &Database, cfg: &TortureConfig, clock: &FaultClock) -> WorkloadTrace {
    let mut rng = Rng::new(cfg.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut trace = WorkloadTrace::default();
    let mut seq = 0i64;
    // Shadow of the readings rows seeded by `build` (ids g*3+k, vals
    // 10/20/30 per group); only consulted when cfg.minmax is set.
    let mut next_reading = 12i64;
    let mut live_readings: Vec<(i64, i64)> = (0..4i64)
        .flat_map(|g| (0..3i64).map(move |k| (g * 3 + k, 10 * (k + 1))))
        .collect();
    for t in 0..cfg.txns {
        trace.attempted += 1;
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        let transfer = if t % 3 == 2 {
            None
        } else {
            let from = rng.below(cfg.accounts as u64) as i64;
            let mut to = rng.below(cfg.accounts as u64) as i64;
            if to == from {
                to = (to + 1) % cfg.accounts;
            }
            seq += 1;
            Some((seq, from, to, rng.range_inclusive(1, 9)))
        };
        let body = match transfer {
            Some((s, from, to, amount)) => do_transfer(db, &mut txn, s, from, to, amount),
            None => {
                let a = rng.below(cfg.churn_groups as u64) as i64;
                let b = rng.below(cfg.churn_groups as u64) as i64;
                do_toggle(db, &mut txn, a).and_then(|()| {
                    if b != a {
                        do_toggle(db, &mut txn, b)
                    } else {
                        Ok(())
                    }
                })
            }
        };
        // With minmax on, every transaction also touches the stats view, so
        // extremum recomputes interleave with the bank/churn traffic under
        // the same crash schedule.
        let body = body.and_then(|()| {
            if cfg.minmax {
                do_reading(db, &mut txn, &mut live_readings, &mut next_reading, &mut rng)
            } else {
                Ok(())
            }
        });
        // Every few transactions, force the in-flight records durable (as
        // a page steal would) so a crash in the window before the commit
        // record lands leaves a *loser with durable work* — the case that
        // actually exercises recovery's undo pass. A third of those then
        // roll back at runtime, putting CLRs into the durable log too.
        let body = body.and_then(|()| {
            if t % 4 == 1 {
                db.log().flush_all()?;
            }
            Ok(())
        });
        if body.is_ok() && t % 12 == 5 {
            if db.rollback(&mut txn).is_ok() {
                trace.rolled_back += 1;
            } else {
                trace.abandoned += 1;
                std::mem::forget(txn);
            }
            continue;
        }
        match body.and_then(|()| db.commit(&mut txn).map(|_| ())) {
            Ok(()) => {
                if !clock.fired() {
                    trace.acked_commits += 1;
                    if let Some(tr) = transfer {
                        trace.acked_transfers.push(tr);
                    }
                }
            }
            Err(_) => {
                if txn.is_active() && db.rollback(&mut txn).is_ok() {
                    trace.rolled_back += 1;
                } else {
                    // Leave it in-flight: recovery must undo it.
                    trace.abandoned += 1;
                    std::mem::forget(txn);
                }
            }
        }
    }
    trace
}

/// Interrogate the oracle on a recovered database; push violations.
pub(crate) fn check_oracle(
    db: &Database,
    cfg: &TortureConfig,
    trace: &WorkloadTrace,
    stage: &str,
    violations: &mut Vec<String>,
) {
    let mut views = vec![BANK_VIEW, CHURN_VIEW];
    if cfg.minmax {
        views.push(MINMAX_VIEW);
    }
    for view in views {
        if let Err(e) = db.verify_view(view) {
            violations.push(format!("[{stage}] view '{view}' != recomputation from base: {e}"));
        }
    }
    // Chain oracle: each level must equal both the transitive recomputation
    // from base AND the one-step fold of its immediate parent's stored
    // rows, and the terminal global row must conserve total money.
    for view in chain_view_names(cfg.chain_depth) {
        if let Err(e) = db.verify_view(&view) {
            violations.push(format!(
                "[{stage}] chain view '{view}' != transitive recomputation: {e}"
            ));
        }
        if let Err(e) = db.verify_view_from_parent(&view) {
            violations.push(format!(
                "[{stage}] chain view '{view}' != fold of immediate parent: {e}"
            ));
        }
    }
    if cfg.chain_depth > 0 {
        match db.dump_view(CHAIN_TOTAL_VIEW) {
            Ok(rows) => {
                let total: i64 =
                    rows.iter().map(|r| r.get(2).as_int().unwrap_or(i64::MIN)).sum();
                let want = cfg.accounts * cfg.initial_balance;
                if rows.len() != 1 || total != want {
                    violations.push(format!(
                        "[{stage}] conservation: '{CHAIN_TOTAL_VIEW}' has {} rows totalling \
                         {total}, expected 1 row totalling {want}",
                        rows.len()
                    ));
                }
            }
            Err(e) => violations.push(format!("[{stage}] '{CHAIN_TOTAL_VIEW}' unreadable: {e}")),
        }
    }
    let ledger = match db.dump_table("ledger") {
        Ok(rows) => rows,
        Err(e) => {
            violations.push(format!("[{stage}] ledger unreadable: {e}"));
            return;
        }
    };
    let mut durable_seqs = HashSet::new();
    let mut expected = vec![cfg.initial_balance; cfg.accounts as usize];
    for r in &ledger {
        let (seq, from, to, amount) = (
            r.get(0).as_int().unwrap_or(-1),
            r.get(1).as_int().unwrap_or(0),
            r.get(2).as_int().unwrap_or(0),
            r.get(3).as_int().unwrap_or(0),
        );
        durable_seqs.insert(seq);
        expected[from as usize] -= amount;
        expected[to as usize] += amount;
    }
    for &(seq, ..) in &trace.acked_transfers {
        if !durable_seqs.contains(&seq) {
            violations.push(format!(
                "[{stage}] durability: acked transfer #{seq} missing from ledger"
            ));
        }
    }
    match db.dump_table("accounts") {
        Ok(rows) => {
            if rows.len() != cfg.accounts as usize {
                violations.push(format!(
                    "[{stage}] accounts table has {} rows, expected {}",
                    rows.len(),
                    cfg.accounts
                ));
            }
            for r in &rows {
                let id = r.get(0).as_int().unwrap_or(-1);
                let bal = r.get(2).as_int().unwrap_or(i64::MIN);
                if id < 0 || id >= cfg.accounts || bal != expected[id as usize] {
                    violations.push(format!(
                        "[{stage}] atomicity: account {id} balance {bal} != ledger replay {}",
                        expected.get(id.max(0) as usize).copied().unwrap_or(i64::MIN)
                    ));
                }
            }
        }
        Err(e) => violations.push(format!("[{stage}] accounts unreadable: {e}")),
    }
}

/// Run one crash episode under `schedule` and interrogate the oracle.
pub fn run_episode(cfg: &TortureConfig, schedule: &FaultSchedule) -> Result<EpisodeReport> {
    let (db, parts) = build(cfg)?;
    let catalog = db.export_catalog();
    parts.clock.arm(schedule);
    let trace = run_workload(&db, cfg, &parts.clock);
    let fault_stats = parts.clock.stats();
    drop(db);

    // Reboot: fall back to what actually reached stable storage.
    parts.disk.crash_restore();
    parts.store.crash_restore();
    parts.clock.disarm();
    let (db, recovery) = Database::with_parts_recovered(
        Arc::new(parts.disk.clone()),
        Box::new(parts.store.clone()),
        Some(&catalog),
        cfg.pool_pages,
        Duration::from_secs(2),
    )?;

    let mut violations = Vec::new();
    check_oracle(&db, cfg, &trace, "recovered", &mut violations);

    // Idempotence: crash again immediately (full steal so every page is
    // durable) — redo must find nothing to do and undo no one.
    let second_recovery = db.crash_and_recover(1.0, cfg.seed)?;
    if second_recovery.redo_applied != 0 {
        violations.push(format!(
            "[second] redo not idempotent: {} records re-applied",
            second_recovery.redo_applied
        ));
    }
    if second_recovery.losers != 0 {
        violations.push(format!(
            "[second] first undo pass did not stick: {} losers remained",
            second_recovery.losers
        ));
    }
    check_oracle(&db, cfg, &trace, "second", &mut violations);

    // Leftover ghosts (from undone inserts / churn deletes) are cleanable.
    let ghost_cleanup = db.run_ghost_cleanup()?;
    check_oracle(&db, cfg, &trace, "post-cleanup", &mut violations);

    // The recovered database accepts new work.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let post = do_transfer(&db, &mut txn, i64::MAX, 0, cfg.accounts - 1, 1)
        .and_then(|()| db.commit(&mut txn).map(|_| ()));
    match post {
        Ok(()) => {
            if let Err(e) = db.verify_view(BANK_VIEW) {
                violations.push(format!("[post-write] view diverged: {e}"));
            }
        }
        Err(e) => violations.push(format!("[post-write] recovered db rejected work: {e}")),
    }

    Ok(EpisodeReport {
        schedule: schedule.clone(),
        crash_event: fault_stats.crash_event,
        fault_stats,
        trace,
        recovery,
        second_recovery,
        ghost_cleanup,
        violations,
    })
}

/// Count the events the workload window spans when no fault fires — the
/// sweepable crash-point horizon.
pub fn measure_horizon(cfg: &TortureConfig) -> Result<u64> {
    let (db, parts) = build(cfg)?;
    let before = parts.clock.events();
    let _ = run_workload(&db, cfg, &parts.clock);
    Ok(parts.clock.events() - before)
}

/// Sweep crash points over the workload window: up to `max_points`
/// episodes, evenly strided across the fault-free horizon, each crashing
/// at a distinct event and asserting the full oracle.
pub fn run_sweep(cfg: &TortureConfig, max_points: usize) -> Result<SweepReport> {
    let horizon = measure_horizon(cfg)?;
    let mut report = SweepReport { horizon, ..Default::default() };
    if horizon == 0 || max_points == 0 {
        return Ok(report);
    }
    let stride = (horizon as usize / max_points.min(horizon as usize)).max(1);
    let mut offset = 0u64;
    while offset < horizon && report.episodes < max_points {
        let ep = run_episode(cfg, &FaultSchedule::crash_at(offset))?;
        report.episodes += 1;
        report.acked_commits += ep.trace.acked_commits;
        report.losers_undone += ep.recovery.losers;
        match ep.crash_event {
            Some(ev) => report.crash_events.push(ev),
            None => report
                .violations
                .push((offset, "scheduled crash never fired inside the workload".into())),
        }
        for v in ep.violations {
            report.violations.push((offset, v));
        }
        offset += stride as u64;
    }
    report.crash_events.sort_unstable();
    report.crash_events.dedup();
    Ok(report)
}

// ---- pipeline-seam sweep -------------------------------------------------

/// The group-commit pipeline's crash seams: mid-batch (commit records
/// appended for some batch members but not all), post-append (the whole
/// batch handed to the store, nothing synced, followers not yet woken),
/// and pre-sync (the leader about to fsync).
pub const PIPELINE_PROBES: [&str; 3] = [
    "wal.pipeline.mid_batch",
    "wal.pipeline.post_append_pre_wake",
    "wal.pipeline.pre_leader_sync",
];

/// Replay the fault-free workload once, recording the relative event
/// offset of every occurrence of each named probe. Offsets are relative to
/// the post-build event count — the same base [`FaultClock::arm`] uses in
/// [`run_episode`] — so `crash_at(offset)` lands the crash exactly on that
/// probe tick.
pub(crate) fn measure_probe_offsets(
    cfg: &TortureConfig,
    names: &'static [&'static str],
) -> Result<Vec<(&'static str, u64)>> {
    let (db, parts) = build(cfg)?;
    let base = parts.clock.events();
    let hits: Arc<parking_lot::Mutex<Vec<(&'static str, u64)>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let c = Arc::clone(&parts.clock);
    let h = Arc::clone(&hits);
    // Replace the log's probe hook with one that still ticks the clock
    // identically but also records where the pipeline seams fall.
    db.log().set_crash_probe(Arc::new(move |p| {
        if names.contains(&p) {
            h.lock().push((p, c.events()));
        }
        c.tick(FaultPoint::Probe(p));
    }));
    let _ = run_workload(&db, cfg, &parts.clock);
    let out = hits.lock().iter().map(|&(n, abs)| (n, abs - base)).collect();
    Ok(out)
}

/// Outcome of a pipeline-seam sweep: one crash episode per sampled
/// occurrence of each pipeline probe.
#[derive(Clone, Debug, Default)]
pub struct ProbeSweepReport {
    /// Episodes run per probe name.
    pub per_probe: Vec<(&'static str, usize)>,
    /// Episodes run in total.
    pub episodes: usize,
    /// Violations, tagged with the crash offset that produced them.
    pub violations: Vec<(u64, String)>,
    /// Total acknowledged commits across episodes.
    pub acked_commits: usize,
}

/// Crash exactly at the pipeline's seams: sample up to `per_probe`
/// occurrences of each probe in [`PIPELINE_PROBES`], run one crash episode
/// per sampled offset, and assert the full oracle on each. Requires
/// `cfg.pipeline`; without it the probes never fire and the sweep reports
/// zero episodes.
pub fn run_pipeline_probe_sweep(
    cfg: &TortureConfig,
    per_probe: usize,
) -> Result<ProbeSweepReport> {
    run_probe_sweep(cfg, &PIPELINE_PROBES, per_probe)
}

/// The cascade flush's mid-chain crash seam: fires between DAG levels
/// inside one transaction's commit flush (needs `chain_depth >= 2`).
pub const CASCADE_PROBES: [&str; 1] = ["view.cascade.level"];

/// Crash exactly *between cascade levels*: sample up to `per_probe`
/// occurrences of [`CASCADE_PROBES`], run one crash episode per sampled
/// offset, and assert the full oracle — a crash between level *k* and
/// *k*+1 must either replay the whole chain as redo or undo it entirely,
/// never leave a half-propagated DAG.
pub fn run_cascade_probe_sweep(
    cfg: &TortureConfig,
    per_probe: usize,
) -> Result<ProbeSweepReport> {
    run_probe_sweep(cfg, &CASCADE_PROBES, per_probe)
}

/// The seam the MIN/MAX maintenance path opens: the window between the
/// recomputer's X-lock grant and the view-row rewrite.
pub const MINMAX_PROBES: [&str; 1] = ["view.minmax.recompute"];

/// Crash exactly inside the MIN/MAX recompute window: sample up to
/// `per_probe` occurrences of [`MINMAX_PROBES`], run one crash episode per
/// sampled offset, and assert the full oracle — the recomputed extremum
/// must land atomically with its group row. Requires `cfg.minmax`; without
/// it the probe never fires and the sweep reports zero episodes.
pub fn run_minmax_probe_sweep(
    cfg: &TortureConfig,
    per_probe: usize,
) -> Result<ProbeSweepReport> {
    run_probe_sweep(cfg, &MINMAX_PROBES, per_probe)
}

fn run_probe_sweep(
    cfg: &TortureConfig,
    probes: &'static [&'static str],
    per_probe: usize,
) -> Result<ProbeSweepReport> {
    let offsets = measure_probe_offsets(cfg, probes)?;
    let mut report = ProbeSweepReport::default();
    for &name in probes {
        let occurrences: Vec<u64> =
            offsets.iter().filter(|(n, _)| *n == name).map(|&(_, o)| o).collect();
        let stride = (occurrences.len() / per_probe.max(1)).max(1);
        let mut ran = 0usize;
        for &offset in occurrences.iter().step_by(stride).take(per_probe) {
            let ep = run_episode(cfg, &FaultSchedule::crash_at(offset))?;
            report.episodes += 1;
            ran += 1;
            report.acked_commits += ep.trace.acked_commits;
            if ep.crash_event.is_none() {
                report
                    .violations
                    .push((offset, format!("crash scheduled at {name} never fired")));
            }
            for v in ep.violations {
                report.violations.push((offset, v));
            }
        }
        report.per_probe.push((name, ran));
    }
    Ok(report)
}

// ---- transient-storm mode ------------------------------------------------
//
// Storms are the *other* half of the resilience contract: where crash
// episodes prove recovery repairs what a fault destroyed, storm episodes
// prove the retry layers make transient faults **invisible** — same acks,
// same committed bytes, no degradation — because a storm's consecutive-run
// cap (≤ 3) sits strictly inside the retry budget (5 attempts per seam).

/// Outcome of one transient-storm episode (faults, no crash, no reboot).
#[derive(Clone, Debug)]
pub struct StormReport {
    /// The transient-only schedule the episode ran under.
    pub schedule: FaultSchedule,
    /// Clock counters at the end of the episode.
    pub fault_stats: FaultStatsSnapshot,
    /// What the workload observed under the storm.
    pub trace: WorkloadTrace,
    /// Resilience counters: retries absorbed, health transitions.
    pub resilience: ResilienceStats,
    /// Oracle violations; empty = the storm was fully absorbed.
    pub violations: Vec<String>,
}

/// Outcome of a storm sweep: many distinct transient-only schedules, each
/// checked for full absorption against one fault-free reference run.
#[derive(Clone, Debug, Default)]
pub struct StormSweepReport {
    /// Fault-free event horizon storms are scattered over.
    pub horizon: u64,
    /// Distinct storm schedules exercised (== episodes run).
    pub episodes: usize,
    /// Transient faults injected across all episodes.
    pub transient_faults: u64,
    /// I/O retries the resilience layer absorbed across all episodes.
    pub io_retries: u64,
    /// Commits acknowledged across all episodes.
    pub acked_commits: usize,
    /// Violations, tagged with the storm seed that produced them.
    pub violations: Vec<(u64, String)>,
}

/// Chain depth inferred from the catalog: how many of the views `build`
/// registers for a chained config actually exist in `db`. Lets fingerprints
/// taken without a config (replication followers, promoted leaders) cover
/// the chain automatically.
pub(crate) fn detect_chain_depth(db: &Database) -> usize {
    if db.view_depth(CHAIN_TOTAL_VIEW).is_err() {
        return 0;
    }
    let mut depth = 1;
    while db.view_depth(&format!("bank_chain_{depth}")).is_ok() {
        depth += 1;
    }
    depth
}

/// Byte-exact fingerprint of the committed state: every base-table row and
/// every visible view row (chain views included), length-framed, in key
/// order.
pub(crate) fn fingerprint(db: &Database) -> Result<Vec<u8>> {
    fingerprint_with_chain(db, detect_chain_depth(db))
}

/// [`fingerprint`] extended with the derived chain views of `chain_depth`.
pub(crate) fn fingerprint_with_chain(db: &Database, chain_depth: usize) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    let frame = |out: &mut Vec<u8>, rows: Vec<Row>| {
        for r in rows {
            let b = r.to_bytes();
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            out.extend_from_slice(&b);
        }
    };
    for table in ["accounts", "items", "ledger"] {
        out.extend_from_slice(table.as_bytes());
        frame(&mut out, db.dump_table(table)?);
    }
    let mut views: Vec<String> = vec![BANK_VIEW.into(), CHURN_VIEW.into()];
    views.extend(chain_view_names(chain_depth));
    for view in &views {
        out.extend_from_slice(view.as_bytes());
        frame(&mut out, db.dump_view(view)?);
    }
    Ok(out)
}

/// The fault-free reference of a config: the trace and committed-state
/// fingerprint of the identical workload with no schedule armed.
pub(crate) fn reference_run(cfg: &TortureConfig) -> Result<(WorkloadTrace, Vec<u8>)> {
    let (db, parts) = build(cfg)?;
    let trace = run_workload(&db, cfg, &parts.clock);
    let fp = fingerprint_with_chain(&db, cfg.chain_depth)?;
    Ok((trace, fp))
}

/// Run one transient-storm episode and assert the absorption oracle:
/// zero lost acked commits, zero degradations, and a committed state
/// byte-identical to the fault-free run of the same seed.
pub fn run_storm_episode(cfg: &TortureConfig, schedule: &FaultSchedule) -> Result<StormReport> {
    let (ref_trace, ref_fp) = reference_run(cfg)?;
    storm_episode_with_reference(cfg, schedule, &ref_trace, &ref_fp)
}

fn storm_episode_with_reference(
    cfg: &TortureConfig,
    schedule: &FaultSchedule,
    ref_trace: &WorkloadTrace,
    ref_fp: &[u8],
) -> Result<StormReport> {
    if !schedule.is_transient_only() {
        return Err(Error::invalid("storm episodes take transient-only schedules"));
    }
    let (db, parts) = build(cfg)?;
    // No backoff sleeping inside episodes: determinism comes from the
    // event clock, and the sweep runs hundreds of these.
    db.set_io_retry_policy(RetryPolicy::no_delay(5));
    parts.clock.arm(schedule);
    let trace = run_workload(&db, cfg, &parts.clock);
    parts.clock.disarm();
    let fault_stats = parts.clock.stats();
    let resilience = db.resilience_stats();

    let mut violations = Vec::new();
    if fault_stats.crash_event.is_some() {
        violations.push("transient-only schedule fired a crash".into());
    }
    if resilience.health != HealthState::Healthy {
        violations.push(format!(
            "degraded under a transient-only storm: {:?} ({})",
            resilience.health,
            db.health().reason(),
        ));
    }
    if trace.acked_commits != ref_trace.acked_commits {
        violations.push(format!(
            "acked commits diverged: {} under storm vs {} fault-free",
            trace.acked_commits, ref_trace.acked_commits
        ));
    }
    if trace.acked_transfers != ref_trace.acked_transfers {
        violations.push("acked transfer set diverged from the fault-free run".into());
    }
    let mut storm_views: Vec<String> = vec![BANK_VIEW.into(), CHURN_VIEW.into()];
    storm_views.extend(chain_view_names(cfg.chain_depth));
    for view in &storm_views {
        if let Err(e) = db.verify_view(view) {
            violations.push(format!("view '{view}' != recomputation from base: {e}"));
        }
    }
    if fingerprint_with_chain(&db, cfg.chain_depth)? != ref_fp {
        violations.push("committed state not byte-identical to the fault-free run".into());
    }
    Ok(StormReport {
        schedule: schedule.clone(),
        fault_stats,
        trace,
        resilience,
        violations,
    })
}

/// Sweep `schedules` *distinct* storm schedules (derived seeds, deduped by
/// fault placement; empty storms skipped) against one shared fault-free
/// reference. Purely seed-deterministic.
pub fn run_storm_sweep(cfg: &TortureConfig, schedules: usize) -> Result<StormSweepReport> {
    let horizon = measure_horizon(cfg)?;
    let (ref_trace, ref_fp) = reference_run(cfg)?;
    let mut report = StormSweepReport { horizon, ..Default::default() };
    let mut seen = HashSet::new();
    let mut i = 0u64;
    while report.episodes < schedules && i < (schedules as u64) * 3 {
        i += 1;
        let storm_seed = cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        let schedule = FaultSchedule::storm(storm_seed, horizon);
        if schedule.faults.is_empty() || !seen.insert(schedule.faults.clone()) {
            continue;
        }
        let ep = storm_episode_with_reference(cfg, &schedule, &ref_trace, &ref_fp)?;
        report.episodes += 1;
        report.transient_faults += ep.fault_stats.transient_faults;
        report.io_retries += ep.resilience.pool_io.retries + ep.resilience.log_io.retries;
        report.acked_commits += ep.trace.acked_commits;
        for v in ep.violations {
            report.violations.push((storm_seed, v));
        }
    }
    Ok(report)
}

// ---- persistent-outage mode ----------------------------------------------

/// Outcome of a persistent-outage episode: the write path dies for good at
/// one event, and the engine must degrade — not corrupt, not panic.
#[derive(Clone, Debug)]
pub struct OutageReport {
    /// Clock counters at the end of the episode.
    pub fault_stats: FaultStatsSnapshot,
    /// Resilience counters (degradations, rejected writes, heals).
    pub resilience: ResilienceStats,
    /// Transactions committed before the outage bit.
    pub commits_before_outage: usize,
    /// Writers rejected with [`Error::Degraded`] during the outage.
    pub writes_rejected: usize,
    /// Oracle violations; empty = degradation was graceful.
    pub violations: Vec<String>,
}

/// Kill the write path persistently at `outage_event`, then assert the
/// graceful-degradation contract: the engine lands in `DegradedReadOnly`
/// (never panics, never corrupts), reads and read-only commits still
/// succeed, writers get a *retryable* classified error, and after the
/// medium heals one [`Database::probe_health`] restores full service.
pub fn run_persistent_episode(cfg: &TortureConfig, outage_event: u64) -> Result<OutageReport> {
    let (db, parts) = build(cfg)?;
    db.set_io_retry_policy(RetryPolicy::no_delay(3));
    parts.clock.arm(&FaultSchedule::persistent_at(outage_event));

    let mut violations = Vec::new();
    let mut commits = 0usize;
    let mut rejected = 0usize;
    let mut rng = Rng::new(cfg.seed ^ 0xD15E_A5ED_0DD5);
    for seq in 1..=(cfg.txns as i64) {
        let from = rng.below(cfg.accounts as u64) as i64;
        let mut to = rng.below(cfg.accounts as u64) as i64;
        if to == from {
            to = (to + 1) % cfg.accounts;
        }
        let amount = rng.range_inclusive(1, 9);
        let result = db.run_txn(IsolationLevel::ReadCommitted, 0, |txn| {
            do_transfer(&db, txn, seq, from, to, amount)
        });
        match result {
            Ok(()) => commits += 1,
            Err(e) => {
                if !e.is_retryable() {
                    violations.push(format!("outage surfaced a non-retryable error: {e}"));
                }
                if matches!(e, Error::Degraded { .. }) {
                    rejected += 1;
                }
            }
        }
    }
    if db.health().state() != HealthState::DegradedReadOnly {
        violations.push(format!(
            "expected DegradedReadOnly after a persistent outage, got {:?}",
            db.health().state()
        ));
    }
    if rejected == 0 {
        violations.push("no writer was rejected with Error::Degraded".into());
    }
    // Reads still serve while degraded, and a read-only transaction
    // commits (no-force: nothing to redo, nothing to flush).
    match db.dump_table("accounts") {
        Ok(rows) if rows.len() == cfg.accounts as usize => {}
        Ok(rows) => violations.push(format!(
            "degraded read returned {} accounts, expected {}",
            rows.len(),
            cfg.accounts
        )),
        Err(e) => violations.push(format!("reads failed while degraded: {e}")),
    }
    let mut ro = db.begin(IsolationLevel::ReadCommitted);
    if let Err(e) = db.commit(&mut ro) {
        violations.push(format!("read-only commit failed while degraded: {e}"));
    }
    // The medium heals; one probe restores full service and writes flow.
    parts.clock.heal();
    if db.probe_health() != HealthState::Healthy {
        violations.push("probe after heal did not restore Healthy".into());
    }
    let post = db.run_txn(IsolationLevel::ReadCommitted, 2, |txn| {
        do_transfer(&db, txn, i64::MAX, 0, cfg.accounts - 1, 1)
    });
    if let Err(e) = post {
        violations.push(format!("post-heal write failed: {e}"));
    }
    for view in [BANK_VIEW, CHURN_VIEW] {
        if let Err(e) = db.verify_view(view) {
            violations.push(format!("[post-heal] view '{view}' diverged: {e}"));
        }
    }
    Ok(OutageReport {
        fault_stats: parts.clock.stats(),
        resilience: db.resilience_stats(),
        commits_before_outage: commits,
        writes_rejected: rejected,
        violations,
    })
}

/// Outcome of the metrics determinism/sanity check.
#[derive(Clone, Debug)]
pub struct MetricsCheckReport {
    /// The snapshot of the first run (for reporting).
    pub snapshot: txview_common::obs::Snapshot,
    /// Violations; empty = metrics are well-formed and deterministic.
    pub violations: Vec<String>,
}

/// Run the fault-free torture workload twice with every metrics clock on
/// the fault clock's event counter, then assert the observability layer's
/// own contract: snapshots are structurally valid (contiguous positive-width
/// log₂ buckets, sums inside bucket-implied ranges) and *identical* across
/// identically-seeded runs — any divergence means wall time or other
/// nondeterminism leaked into a metric.
pub fn run_metrics_check(cfg: &TortureConfig) -> Result<MetricsCheckReport> {
    let run_once = || -> Result<txview_common::obs::Snapshot> {
        let (db, parts) = build(cfg)?;
        let _ = run_workload(&db, cfg, &parts.clock);
        db.run_ghost_cleanup()?;
        Ok(db.metrics_snapshot())
    };
    let a = run_once()?;
    let b = run_once()?;
    let mut violations = Vec::new();
    for (name, snap) in [("first", &a), ("second", &b)] {
        if let Err(e) = snap.validate() {
            violations.push(format!("[{name}] malformed snapshot: {e}"));
        }
    }
    if a != b {
        violations.push("snapshot divergence between identically-seeded runs".into());
    }
    // Sanity: the workload must actually have exercised the instrumented
    // paths, or the determinism check proves nothing.
    if a.counter_value("txn.commits").unwrap_or(0) == 0 {
        violations.push("no commits recorded — metrics not wired into the txn layer".into());
    }
    if a.counter_value("engine.escrow_applies").unwrap_or(0)
        + a.counter_value("engine.minmax_rewrites").unwrap_or(0)
        == 0
    {
        violations.push("no view maintenance recorded — engine counters not wired".into());
    }
    if a.counter_value("versions.folds").unwrap_or(0) == 0
        || a.gauge_value("versions.entries").unwrap_or(0) <= 0
    {
        violations.push("no version folds or entries recorded — version-store metrics not wired".into());
    }
    match a.hist_value("txn.phase.commit_us") {
        Some(h) if h.count() > 0 => {}
        _ => violations.push("commit-phase histogram empty — phase timers not wired".into()),
    }
    Ok(MetricsCheckReport { snapshot: a, violations })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> TortureConfig {
        TortureConfig { txns: 12, ..Default::default() }
    }

    #[test]
    fn fault_free_episode_passes_oracle() {
        // A schedule that never fires: the "crash" lands far past the end.
        let ep = run_episode(&quick_cfg(), &FaultSchedule::crash_at(1_000_000)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert_eq!(ep.crash_event, None);
        // 12 attempts, one deliberate runtime rollback (t == 5).
        assert_eq!(ep.trace.acked_commits, 11);
        assert_eq!(ep.trace.rolled_back, 1);
        assert_eq!(ep.recovery.losers, 0);
    }

    #[test]
    fn early_crash_loses_everything_but_stays_consistent() {
        let ep = run_episode(&quick_cfg(), &FaultSchedule::crash_at(0)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert_eq!(ep.crash_event, Some(ep.fault_stats.crash_event.unwrap()));
        assert!(ep.trace.acked_commits < 12);
    }

    #[test]
    fn metrics_check_passes_and_is_deterministic() {
        let report = run_metrics_check(&quick_cfg()).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Tick-mode clocks: phase "durations" are event-count deltas, and
        // the snapshot carries real activity from every layer.
        assert!(report.snapshot.counter_value("txn.commits").unwrap() > 0);
        assert!(report.snapshot.hist_value("wal.sync_us").unwrap().count() > 0);
        assert!(report.snapshot.hist_value("lock.hold_us").unwrap().count() > 0);
    }

    #[test]
    fn same_seed_same_outcome() {
        let cfg = quick_cfg();
        let a = run_episode(&cfg, &FaultSchedule::crash_at(13)).unwrap();
        let b = run_episode(&cfg, &FaultSchedule::crash_at(13)).unwrap();
        assert_eq!(a.crash_event, b.crash_event);
        assert_eq!(a.trace.acked_transfers, b.trace.acked_transfers);
        assert_eq!(a.recovery.losers, b.recovery.losers);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.fault_stats.events, b.fault_stats.events);
    }

    #[test]
    fn transient_fault_is_survivable() {
        use txview_storage::fault::FaultKind;
        let schedule = FaultSchedule {
            faults: vec![(5, FaultKind::Transient), (40, FaultKind::Crash)],
        };
        let ep = run_episode(&quick_cfg(), &schedule).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert_eq!(ep.fault_stats.transient_faults, 1);
    }

    #[test]
    fn xlock_mode_episode_passes() {
        let cfg = TortureConfig { mode: MaintenanceMode::XLock, txns: 12, ..Default::default() };
        let ep = run_episode(&cfg, &FaultSchedule::crash_at(17)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
    }

    #[test]
    fn mini_sweep_is_clean() {
        let report = run_sweep(&quick_cfg(), 8).unwrap();
        assert!(report.horizon > 20, "horizon {}", report.horizon);
        assert_eq!(report.episodes, 8);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.crash_events.len() >= 7);
    }

    #[test]
    fn storm_episode_is_fully_absorbed() {
        let cfg = quick_cfg();
        let horizon = measure_horizon(&cfg).unwrap();
        let schedule = FaultSchedule::storm(7, horizon);
        assert!(!schedule.faults.is_empty());
        let ep = run_storm_episode(&cfg, &schedule).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.fault_stats.transient_faults > 0);
        // The storm was visible to the retry layer, not to the workload.
        let absorbed = ep.resilience.pool_io.retries + ep.resilience.log_io.retries;
        assert!(absorbed > 0, "no retries recorded for {} faults", ep.fault_stats.transient_faults);
        assert_eq!(ep.resilience.health, HealthState::Healthy);
        assert_eq!(ep.trace.rolled_back, 1); // only the deliberate one
    }

    #[test]
    fn storm_episode_rejects_crashy_schedules() {
        let err = run_storm_episode(&quick_cfg(), &FaultSchedule::crash_at(3)).unwrap_err();
        assert!(matches!(err, Error::InvalidOperation(_)));
    }

    #[test]
    fn mini_storm_sweep_is_clean_and_distinct() {
        let report = run_storm_sweep(&quick_cfg(), 6).unwrap();
        assert_eq!(report.episodes, 6);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.transient_faults > 0);
        assert!(report.io_retries > 0);
    }

    #[test]
    fn persistent_outage_degrades_gracefully_and_heals() {
        let cfg = quick_cfg();
        let report = run_persistent_episode(&cfg, 6).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.writes_rejected > 0);
        assert_eq!(report.resilience.health, HealthState::Healthy); // post-heal
        assert_eq!(report.resilience.health_counters.degradations, 1);
        assert_eq!(report.resilience.health_counters.heals, 1);
        assert!(report.resilience.health_counters.writes_rejected > 0);
    }

    fn pipeline_cfg() -> TortureConfig {
        TortureConfig { txns: 12, pipeline: true, ..Default::default() }
    }

    #[test]
    fn pipelined_fault_free_episode_passes_oracle() {
        let ep = run_episode(&pipeline_cfg(), &FaultSchedule::crash_at(1_000_000)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert_eq!(ep.trace.acked_commits, 11);
        assert_eq!(ep.recovery.losers, 0);
    }

    #[test]
    fn pipelined_mini_sweep_is_clean() {
        let report = run_sweep(&pipeline_cfg(), 6).unwrap();
        assert_eq!(report.episodes, 6);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn pipeline_probe_sweep_covers_all_three_seams() {
        let report = run_pipeline_probe_sweep(&pipeline_cfg(), 3).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.per_probe.len(), 3);
        for &(name, ran) in &report.per_probe {
            assert!(ran >= 1, "probe {name} never got a crash episode");
        }
    }

    #[test]
    fn pipelined_storm_episode_is_absorbed() {
        let cfg = pipeline_cfg();
        let horizon = measure_horizon(&cfg).unwrap();
        let ep = run_storm_episode(&cfg, &FaultSchedule::storm(9, horizon)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert!(ep.fault_stats.transient_faults > 0);
    }

    #[test]
    fn pipelined_metrics_check_is_deterministic() {
        let report = run_metrics_check(&pipeline_cfg()).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.snapshot.counter_value("txn.pipeline.leader_syncs").unwrap_or(0) > 0);
    }

    fn chain_cfg(depth: usize) -> TortureConfig {
        TortureConfig { txns: 12, chain_depth: depth, ..Default::default() }
    }

    #[test]
    fn chain_fault_free_episode_passes_oracle() {
        let ep = run_episode(&chain_cfg(2), &FaultSchedule::crash_at(1_000_000)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert_eq!(ep.trace.acked_commits, 11);
    }

    #[test]
    fn chain_mini_sweep_is_clean() {
        let report = run_sweep(&chain_cfg(2), 6).unwrap();
        assert_eq!(report.episodes, 6);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn deep_chain_pipelined_episode_passes_oracle() {
        let cfg = TortureConfig { txns: 12, chain_depth: 4, pipeline: true, ..Default::default() };
        let ep = run_episode(&cfg, &FaultSchedule::crash_at(1_000_000)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
    }

    #[test]
    fn cascade_probe_sweep_crashes_between_levels() {
        let report = run_cascade_probe_sweep(&chain_cfg(2), 3).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.per_probe.len(), 1);
        assert!(
            report.per_probe[0].1 >= 1,
            "mid-chain probe never fired — is the flush emitting view.cascade.level?"
        );
    }

    fn minmax_cfg() -> TortureConfig {
        // 16 ends the schedule on a committing transfer (t=15), whose flush
        // carries the t=5 deliberate abort into the durable log — a tail
        // rollback (t ≡ 5 mod 12 right after a flush tick) would instead
        // leave a legitimate loser and make the losers==0 assert moot.
        TortureConfig { txns: 16, minmax: true, ..Default::default() }
    }

    #[test]
    fn minmax_fault_free_episode_passes_oracle() {
        let ep = run_episode(&minmax_cfg(), &FaultSchedule::crash_at(1_000_000)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
        assert_eq!(ep.recovery.losers, 0);
    }

    #[test]
    fn minmax_mini_sweep_is_clean() {
        let report = run_sweep(&minmax_cfg(), 6).unwrap();
        assert_eq!(report.episodes, 6);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
    }

    #[test]
    fn minmax_probe_sweep_covers_the_recompute_seam() {
        let report = run_minmax_probe_sweep(&minmax_cfg(), 3).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert_eq!(report.per_probe.len(), 1);
        for &(name, ran) in &report.per_probe {
            assert!(ran >= 1, "probe {name} never got a crash episode");
        }
    }

    #[test]
    fn minmax_gate_actually_changes_the_workload() {
        // Non-vacuity: with the gate on, the probe must occur in the
        // fault-free schedule (otherwise the sweep above proves nothing),
        // and with it off it must never fire — the off-path draws no
        // extra rng and emits no extra events, keeping pinned horizons.
        let on = measure_probe_offsets(&minmax_cfg(), &MINMAX_PROBES).unwrap();
        for name in MINMAX_PROBES {
            let n = on.iter().filter(|(p, _)| *p == name).count();
            assert!(n >= 2, "probe {name} fired {n} times; workload too tame");
        }
        let off =
            measure_probe_offsets(&TortureConfig { minmax: false, ..minmax_cfg() }, &MINMAX_PROBES)
                .unwrap();
        assert!(off.is_empty(), "gated probes fired with minmax off: {off:?}");
    }

    #[test]
    fn chain_storm_episode_is_absorbed() {
        let cfg = chain_cfg(2);
        let horizon = measure_horizon(&cfg).unwrap();
        let ep = run_storm_episode(&cfg, &FaultSchedule::storm(5, horizon)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
    }

    #[test]
    fn chain_metrics_are_deterministic_and_wired() {
        let report = run_metrics_check(&chain_cfg(2)).unwrap();
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        let s = &report.snapshot;
        assert!(s.counter_value("view.graph.enqueues").unwrap_or(0) > 0);
        assert!(s.counter_value("view.graph.refreshes").unwrap_or(0) > 0);
        assert!(s.counter_value("view.graph.coalesce_hits").unwrap_or(0) > 0);
    }

    #[test]
    fn xlock_chain_episode_passes() {
        let cfg = TortureConfig {
            mode: MaintenanceMode::XLock,
            txns: 12,
            chain_depth: 2,
            ..Default::default()
        };
        let ep = run_episode(&cfg, &FaultSchedule::crash_at(23)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
    }

    #[test]
    fn xlock_storm_episode_is_absorbed_too() {
        let cfg = TortureConfig { mode: MaintenanceMode::XLock, txns: 12, ..Default::default() };
        let horizon = measure_horizon(&cfg).unwrap();
        let ep = run_storm_episode(&cfg, &FaultSchedule::storm(11, horizon)).unwrap();
        assert!(ep.violations.is_empty(), "{:?}", ep.violations);
    }
}
