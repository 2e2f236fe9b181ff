//! End-to-end observability: the metrics snapshot reflects what the
//! engine actually did — lock-wait histograms fill under contention and
//! stay empty without it, phase timers count every commit, and the
//! deferred-staleness gauge counts view-row deltas (not DML statements).

use std::sync::Arc;
use std::time::Duration;
use txview_engine::{
    AggSpec, CmpOp, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};
use txview_common::row;
use txview_common::schema::{Column, Schema};
use txview_common::value::{Value, ValueType};
use txview_workload::bank::{Bank, BankConfig};
use txview_workload::driver::{run_for, WorkerSpec};

fn hist_count(snap: &txview_common::obs::Snapshot, name: &str) -> u64 {
    snap.hist_value(name).map(|h| h.count()).unwrap_or(0)
}

#[test]
fn single_threaded_run_records_no_lock_waits() {
    let bank = Bank::setup(BankConfig {
        mode: MaintenanceMode::XLock,
        branches: 1,
        ..Default::default()
    })
    .unwrap();
    let db = &bank.db;
    for i in 0..20i64 {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        db.update_with(&mut txn, "accounts", &[Value::Int(i)], |r| {
            let mut out = r.clone();
            out.set(2, Value::Int(r.get(2).as_int().unwrap() + 1));
            out
        })
        .unwrap();
        db.commit(&mut txn).unwrap();
    }
    let snap = db.metrics_snapshot();
    snap.validate().unwrap();
    assert!(snap.counter_value("lock.acquired").unwrap() > 0);
    // Nothing to wait for: every wait histogram stays empty.
    for h in ["lock.wait_us.e", "lock.wait_us.x", "lock.wait_us.other"] {
        assert_eq!(hist_count(&snap, h), 0, "{h} populated without contention");
    }
    assert_eq!(snap.counter_value("lock.deadlock_victims"), Some(0));
    // Phase timers cover every commit.
    assert_eq!(hist_count(&snap, "txn.phase.commit_us"), snap.counter_value("txn.commits").unwrap());
}

#[test]
fn contended_run_populates_wait_histograms_and_phase_timers() {
    // One hot view row + X-lock maintenance: every transaction serializes
    // on the same view-row X lock, so 4 threads must queue.
    let bank = Bank::setup(BankConfig {
        mode: MaintenanceMode::XLock,
        branches: 1,
        ..Default::default()
    })
    .unwrap();
    let specs = [WorkerSpec {
        name: "deposit".into(),
        threads: 4,
        isolation: IsolationLevel::ReadCommitted,
        op: bank.batch_deposit_op(4),
    }];
    let res = run_for(&bank.db, &specs, Duration::from_millis(250));
    assert!(res[0].committed > 0);
    bank.verify().unwrap();

    let snap = bank.db.metrics_snapshot();
    snap.validate().unwrap();
    assert!(snap.counter_value("lock.waited").unwrap() > 0, "no lock ever waited:\n{}", snap.report());
    assert!(
        hist_count(&snap, "lock.wait_us.x") > 0,
        "X-lock wait histogram empty under contention:\n{}",
        snap.report()
    );
    assert!(hist_count(&snap, "lock.hold_us") > 0);
    // Per-phase commit accounting matches the commit counter, and the
    // maintain phase did real work.
    let commits = snap.counter_value("txn.commits").unwrap();
    assert!(commits >= res[0].committed, "driver saw more commits than the engine");
    assert_eq!(hist_count(&snap, "txn.phase.commit_us"), commits);
    assert_eq!(hist_count(&snap, "txn.phase.maintain_us"), commits);
    assert!(snap.hist_value("txn.phase.maintain_us").unwrap().sum > 0);
    // WAL + pool layers saw traffic too.
    assert!(snap.counter_value("wal.appended_records").unwrap() > 0);
    assert!(hist_count(&snap, "wal.sync_us") > 0);
    assert!(snap.counter_value("pool.hits").unwrap() > 0);
    // The human report renders every section.
    let report = snap.report();
    for section in ["lock.", "wal.", "pool.", "txn.", "engine."] {
        assert!(report.contains(section), "report missing {section} section");
    }
}

#[test]
fn escrow_contention_grants_do_not_serialize() {
    // Same hot row under escrow: E locks are compatible, so concurrent
    // deposits mostly proceed without queueing on the view row.
    let bank = Bank::setup(BankConfig {
        mode: MaintenanceMode::Escrow,
        branches: 1,
        ..Default::default()
    })
    .unwrap();
    let specs = [WorkerSpec {
        name: "deposit".into(),
        threads: 4,
        isolation: IsolationLevel::ReadCommitted,
        op: bank.batch_deposit_op(4),
    }];
    let res = run_for(&bank.db, &specs, Duration::from_millis(250));
    assert!(res[0].committed > 0);
    bank.verify().unwrap();
    let snap = bank.db.metrics_snapshot();
    snap.validate().unwrap();
    assert!(
        snap.counter_value("lock.escrow_grants").unwrap() > 0,
        "escrow mode never granted an E lock:\n{}",
        snap.report()
    );
    assert!(snap.counter_value("engine.escrow_applies").unwrap() > 0);
}

/// Satellite regression at the integration level: `deferred_pending`
/// counts unapplied view-row *deltas* — a filtered-out row adds 0, a plain
/// insert 1, a group-moving update 2.
#[test]
fn deferred_staleness_counts_deltas_not_statements() {
    let db = Database::new_in_memory(256);
    let t = db
        .create_table(
            "sales",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("product", ValueType::Int),
                    Column::new("amount", ValueType::Int),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
    db.create_indexed_view(ViewSpec {
        name: "big_sales".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::Cmp { col: 2, op: CmpOp::Gt, value: Value::Int(100) },
        maintenance: MaintenanceMode::Escrow,
        deferred: true,
        eager_group_delete: false,
    })
    .unwrap();
    let db: &Arc<Database> = &db;
    let staleness = || db.harness().deferred_staleness("big_sales").unwrap();

    // Filtered-out row: no view delta, staleness unchanged.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "sales", row![1i64, 1i64, 50i64]).unwrap();
    db.commit(&mut txn).unwrap();
    assert_eq!(staleness(), 0, "filtered insert must not count");

    // Qualifying insert: one delta.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "sales", row![2i64, 1i64, 500i64]).unwrap();
    db.commit(&mut txn).unwrap();
    assert_eq!(staleness(), 1, "plain insert counts once");

    // Group-moving update: retract from product 1, apply to product 2.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.update_with(&mut txn, "sales", &[Value::Int(2)], |r| {
        let mut out = r.clone();
        out.set(1, Value::Int(2));
        out
    })
    .unwrap();
    db.commit(&mut txn).unwrap();
    assert_eq!(staleness(), 3, "group-moving update counts twice");

    // The gauge in the snapshot mirrors the per-view counter.
    assert_eq!(db.metrics_snapshot().gauge_value("engine.deferred_pending"), Some(3));

    // Refresh drains exactly what it observed.
    db.harness().refresh_deferred_view("big_sales").unwrap();
    assert_eq!(staleness(), 0);
    db.harness().verify_view("big_sales").unwrap();
}
