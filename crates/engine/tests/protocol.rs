//! End-to-end tests of the paper's protocol against a single database:
//! immediate maintenance, escrow concurrency, rollback, the group
//! come/go anomaly, ghost cleanup, isolation levels, crash recovery.

use std::sync::Arc;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Error, Value};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

/// accounts(id INT PK, branch INT, balance INT)
fn accounts_schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("branch", ValueType::Int),
            Column::new("balance", ValueType::Int),
        ],
        vec![0],
    )
    .unwrap()
}

fn setup(mode: MaintenanceMode) -> (Arc<Database>, &'static str) {
    let db = Database::new_in_memory(512);
    let t = db.create_table("accounts", accounts_schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "branch_balance".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: mode,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    (db, "branch_balance")
}

fn load_accounts(db: &Database, n: i64, branches: i64, balance: i64) {
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..n {
        db.insert(&mut txn, "accounts", row![i, i % branches, balance]).unwrap();
    }
    db.commit(&mut txn).unwrap();
}

#[test]
fn view_tracks_inserts_updates_deletes() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 10, 2, 100);
    db.harness().verify_view(view).unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let (count, aggs) = db.view_aggregates(&mut txn, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(count, 5);
    assert_eq!(aggs, vec![Value::Int(500)]);

    // Update moves balance within the same group (merged delta).
    db.update(&mut txn, "accounts", row![0i64, 0i64, 250i64]).unwrap();
    // Delete removes a contribution.
    db.delete(&mut txn, "accounts", &[Value::Int(2)]).unwrap();
    db.commit(&mut txn).unwrap();

    db.harness().verify_view(view).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let (count, aggs) = db.view_aggregates(&mut txn, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(count, 4);
    assert_eq!(aggs, vec![Value::Int(550)]); // 500 + 150 - 100
    db.commit(&mut txn).unwrap();
}

#[test]
fn update_moving_groups_emits_two_deltas() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 4, 2, 100);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    // Move account 0 from branch 0 to branch 1.
    db.update(&mut txn, "accounts", row![0i64, 1i64, 100i64]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view(view).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut txn, view, &[Value::Int(0)]).unwrap().unwrap(),
        (1, vec![Value::Int(100)])
    );
    assert_eq!(
        db.view_aggregates(&mut txn, view, &[Value::Int(1)]).unwrap().unwrap(),
        (3, vec![Value::Int(300)])
    );
    db.commit(&mut txn).unwrap();
}

#[test]
fn rollback_restores_base_and_view() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        let (db, view) = setup(mode);
        load_accounts(&db, 6, 3, 100);
        let before = db.harness().dump_view(view).unwrap();

        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut txn, "accounts", row![100i64, 0i64, 999i64]).unwrap();
        db.update(&mut txn, "accounts", row![1i64, 1i64, 1i64]).unwrap();
        db.delete(&mut txn, "accounts", &[Value::Int(2)]).unwrap();
        db.rollback(&mut txn).unwrap();

        assert_eq!(db.harness().dump_view(view).unwrap(), before, "mode {mode:?}");
        db.harness().verify_view(view).unwrap();
        assert_eq!(db.harness().dump_table("accounts").unwrap().len(), 6);
    }
}

#[test]
fn savepoint_partial_rollback() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 2, 1, 100);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "accounts", row![10i64, 0i64, 50i64]).unwrap();
    let sp = txn.savepoint();
    db.insert(&mut txn, "accounts", row![11i64, 0i64, 70i64]).unwrap();
    db.rollback_to_savepoint(&mut txn, sp).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view(view).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut txn, view, &[Value::Int(0)]).unwrap().unwrap(),
        (3, vec![Value::Int(250)])
    );
    db.commit(&mut txn).unwrap();
    assert!(db.get_row(&mut db.begin(IsolationLevel::ReadCommitted), "accounts", &[Value::Int(11)]).unwrap().is_none());
}

/// The version a commit publishes for a view row is the transaction's net
/// escrow delta, accumulated in memory. A savepoint rollback must retract
/// the undone span from that accumulator, or a Snapshot reader sees work
/// that was rolled back even though the stored row is right.
#[test]
fn savepoint_rollback_is_absent_from_the_published_version() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 2, 1, 100);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "accounts", row![10i64, 0i64, 50i64]).unwrap();
    let sp = txn.savepoint();
    db.insert(&mut txn, "accounts", row![11i64, 0i64, 70i64]).unwrap();
    db.update(&mut txn, "accounts", row![1i64, 0i64, 1000i64]).unwrap();
    db.rollback_to_savepoint(&mut txn, sp).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view(view).unwrap();
    let mut snap = db.begin(IsolationLevel::Snapshot);
    assert_eq!(
        db.view_aggregates(&mut snap, view, &[Value::Int(0)]).unwrap().unwrap(),
        (3, vec![Value::Int(250)])
    );
    db.commit(&mut snap).unwrap();
}

/// A savepoint rollback rebuilds each undone escrow delta from its logged
/// pairs, which leave zero slots out, and retracts its projection from the
/// queued cascade entries. The rebuilt delta must give a left-out slot the
/// parent aggregate's type (here a FLOAT sum), or the retraction refuses to
/// merge into the child's queued entry.
#[test]
fn savepoint_retracts_a_float_cascade() {
    let db = Database::new_in_memory(512);
    let schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("grp", ValueType::Int),
            Column::new("amt", ValueType::Int),
            Column::new("w", ValueType::Float),
        ],
        vec![0],
    )
    .unwrap();
    let t = db.create_table("items", schema).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "by_grp".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }, AggSpec::SumFloat { col: 3 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    // Layout of `by_grp`: [grp, COUNT_BIG, SUM(amt), SUM(w)].
    let rollup = vec![AggSpec::SumInt { col: 1 }, AggSpec::SumInt { col: 2 }, AggSpec::SumFloat { col: 3 }];
    db.create_derived_view("total", "by_grp", vec![], rollup, MaintenanceMode::Escrow).unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![1i64, 0i64, 10i64, 1.5f64]).unwrap();
    let sp = txn.savepoint();
    db.insert(&mut txn, "items", row![2i64, 0i64, 20i64, 0.0f64]).unwrap();
    db.update(&mut txn, "items", row![1i64, 0i64, 10i64, 2.5f64]).unwrap();
    db.rollback_to_savepoint(&mut txn, sp).unwrap();
    db.commit(&mut txn).unwrap();

    db.harness().verify_view("by_grp").unwrap();
    db.harness().verify_view("total").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut r, "total", &[Value::Int(0)]).unwrap().unwrap(),
        (1, vec![Value::Int(1), Value::Int(10), Value::Float(1.5)])
    );
    db.commit(&mut r).unwrap();
}

#[test]
fn group_come_and_go_anomaly() {
    // T1 creates a group; T2 increments it; T1 rolls back. The group row
    // must survive with only T2's contribution (undo by inverse delta).
    let (db, view) = setup(MaintenanceMode::Escrow);

    let mut t1 = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut t1, "accounts", row![1i64, 7i64, 10i64]).unwrap();

    let mut t2 = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut t2, "accounts", row![2i64, 7i64, 20i64]).unwrap();
    db.commit(&mut t2).unwrap();

    db.rollback(&mut t1).unwrap();
    db.harness().verify_view(view).unwrap();

    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut r, view, &[Value::Int(7)]).unwrap().unwrap(),
        (1, vec![Value::Int(20)])
    );
    db.commit(&mut r).unwrap();
}

#[test]
fn count_to_zero_hides_group_and_cleanup_removes_it() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 2, 2, 100); // branch 0: acct 0; branch 1: acct 1

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "accounts", &[Value::Int(0)]).unwrap();
    db.commit(&mut txn).unwrap();

    // Group 0 is logically absent though physically present.
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert!(db.view_aggregates(&mut r, view, &[Value::Int(0)]).unwrap().is_none());
    db.commit(&mut r).unwrap();
    db.harness().verify_view(view).unwrap();

    // Cleanup physically removes the zero-count view row and the base ghost.
    let report = db.run_ghost_cleanup().unwrap();
    assert!(report.removed >= 2, "view row + base ghost: {report:?}");
    db.harness().verify_view(view).unwrap();

    // Re-inserting the group recreates the row.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "accounts", row![10i64, 0i64, 5i64]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view(view).unwrap();
}

#[test]
fn concurrent_escrow_writers_same_group() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 1, 1, 0); // one group, one account
    let threads: Vec<_> = (0..8u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    let id = 1000 + t * 1000 + i;
                    db.run_txn(IsolationLevel::ReadCommitted, 10, |txn| {
                        db.insert(txn, "accounts", row![id as i64, 0i64, 1i64])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    db.harness().verify_view(view).unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut r, view, &[Value::Int(0)]).unwrap().unwrap(),
        (401, vec![Value::Int(400)])
    );
    db.commit(&mut r).unwrap();
    // Escrow grants must dominate: the hot row never serialized writers.
    assert!(db.stats().locks.escrow_grants >= 400);
}

#[test]
fn serializable_reader_blocks_escrow_writer() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 2, 1, 100);

    let mut reader = db.begin(IsolationLevel::Serializable);
    let (count, _) = db.view_aggregates(&mut reader, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(count, 2);

    // A writer that must touch the locked view row times out (the reader
    // holds S until commit).
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let mut w = db2.begin(IsolationLevel::ReadCommitted);
        let res = db2.insert(&mut w, "accounts", row![50i64, 0i64, 1i64]);
        if w.is_active() {
            let _ = db2.rollback(&mut w);
        }
        res.is_ok()
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Reader still sees the same stable aggregate, then commits.
    let (count2, _) = db.view_aggregates(&mut reader, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(count2, count);
    db.commit(&mut reader).unwrap();
    assert!(h.join().unwrap(), "writer proceeds after reader commits");
    db.harness().verify_view(view).unwrap();
}

#[test]
fn snapshot_reader_ignores_inflight_escrow() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 2, 1, 100);

    let mut snap = db.begin(IsolationLevel::Snapshot);
    // A writer updates the hot row but does NOT commit.
    let mut w = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut w, "accounts", row![50i64, 0i64, 42i64]).unwrap();

    // The snapshot reader sees the pre-writer state, without blocking.
    let (count, aggs) = db.view_aggregates(&mut snap, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!((count, aggs), (2, vec![Value::Int(200)]));

    db.commit(&mut w).unwrap();
    // Still the old snapshot after the writer commits.
    let (count, _) = db.view_aggregates(&mut snap, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(count, 2);
    db.commit(&mut snap).unwrap();

    // A fresh snapshot sees the new state.
    let mut snap2 = db.begin(IsolationLevel::Snapshot);
    let (count, aggs) = db.view_aggregates(&mut snap2, view, &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!((count, aggs), (3, vec![Value::Int(242)]));
    db.commit(&mut snap2).unwrap();
}

/// A Snapshot transaction held open across 1,000 commits to one group pins
/// the fold horizon: its own reads stay exactly what they were, the chain
/// keeps every version above it (and says so in `versions.*`), and once it
/// ends the next publish folds the lot.
#[test]
fn long_snapshot_keeps_its_row_and_releases_the_chain_when_it_ends() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 2, 1, 100);
    let g = [Value::Int(0)];
    let versions = |db: &Database| {
        let m = db.metrics_snapshot();
        (m.gauge_value("versions.entries").unwrap(), m.counter_value("versions.folds").unwrap())
    };

    let mut held = db.begin(IsolationLevel::Snapshot);
    let original = db.view_lookup(&mut held, view, &g).unwrap().unwrap();
    assert_eq!(original, row![0i64, 2i64, 200i64]);
    for i in 0..1000i64 {
        let mut w = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut w, "accounts", row![100 + i, 0i64, 1i64]).unwrap();
        db.commit(&mut w).unwrap();
    }
    assert_eq!(db.view_lookup(&mut held, view, &g).unwrap().unwrap(), original);
    assert_eq!(db.view_scan(&mut held, view, None, None).unwrap(), vec![original]);
    let mut fresh = db.begin(IsolationLevel::Snapshot);
    assert_eq!(db.view_lookup(&mut fresh, view, &g).unwrap().unwrap(), row![0i64, 1002i64, 1200i64]);
    db.commit(&mut fresh).unwrap();

    // The load's own entry folded at the first later publish; the 1,000
    // above the held snapshot cannot.
    assert_eq!(db.harness().debug_chain(view, &g).unwrap().len(), 1001);
    assert_eq!(versions(&db), (1001, 1));
    let seen = db.metrics_snapshot().hist_value("versions.chain_len").unwrap().clone();
    assert!(seen.max_bound() >= 1001, "readers met the long chain: {seen:?}");

    db.commit(&mut held).unwrap();
    let mut w = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut w, "accounts", row![5000i64, 0i64, 1i64]).unwrap();
    db.commit(&mut w).unwrap();
    // Base plus the entry just published (its own commit ticket keeps the
    // horizon below it).
    assert_eq!(db.harness().debug_chain(view, &g).unwrap().len(), 2);
    assert_eq!(versions(&db), (2, 1001));
    let mut fresh = db.begin(IsolationLevel::Snapshot);
    assert_eq!(db.view_lookup(&mut fresh, view, &g).unwrap().unwrap(), row![0i64, 1003i64, 1201i64]);
    db.commit(&mut fresh).unwrap();
    db.harness().verify_view(view).unwrap();
}

#[test]
fn crash_recovery_committed_survives_losers_undone() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 10, 2, 100);
    db.checkpoint().unwrap();

    // Committed work.
    let mut c = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut c, "accounts", row![100i64, 0i64, 77i64]).unwrap();
    db.delete(&mut c, "accounts", &[Value::Int(1)]).unwrap();
    db.commit(&mut c).unwrap();

    // In-flight loser (escrow increments on both groups).
    let mut l = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut l, "accounts", row![200i64, 0i64, 55i64]).unwrap();
    db.insert(&mut l, "accounts", row![201i64, 1i64, 66i64]).unwrap();
    std::mem::forget(l); // crash with the transaction in flight

    let report = db.crash_and_recover(0.5, 42).unwrap();
    assert!(report.losers >= 1);
    assert!(report.logical_undos >= 1);

    db.harness().verify_view(view).unwrap();
    let rows = db.harness().dump_table("accounts").unwrap();
    let ids: Vec<i64> = rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
    assert!(ids.contains(&100), "committed insert survives");
    assert!(!ids.contains(&1), "committed delete survives");
    assert!(!ids.contains(&200) && !ids.contains(&201), "loser undone");
}

#[test]
fn crash_recovery_is_idempotent_under_repeated_crashes() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 20, 4, 10);
    for seed in 0..5 {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        let id = 1000 + seed as i64;
        db.insert(&mut txn, "accounts", row![id, seed as i64 % 4, 3i64]).unwrap();
        db.commit(&mut txn).unwrap();
        // Loser in flight at every crash.
        let mut loser = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut loser, "accounts", row![id + 500, 0i64, 9i64]).unwrap();
        std::mem::forget(loser);
        db.crash_and_recover(0.3, seed).unwrap();
        db.harness().verify_view(view).unwrap();
    }
    assert_eq!(db.harness().dump_table("accounts").unwrap().len(), 25);
}

#[test]
fn xlock_mode_is_correct_just_slower() {
    let (db, view) = setup(MaintenanceMode::XLock);
    load_accounts(&db, 1, 1, 0);
    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..25u64 {
                    let id = 1000 + t * 1000 + i;
                    db.run_txn(IsolationLevel::ReadCommitted, 20, |txn| {
                        db.insert(txn, "accounts", row![id as i64, 0i64, 2i64])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in threads {
        h.join().unwrap();
    }
    db.harness().verify_view(view).unwrap();
    assert_eq!(db.stats().locks.escrow_grants, 0, "no E locks in baseline");
}

#[test]
fn min_max_view_maintained_with_recompute_on_delete() {
    let db = Database::new_in_memory(512);
    let t = db.create_table("accounts", accounts_schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "branch_minmax".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::Min { col: 2 }, AggSpec::Max { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow, // forced to XLock internally
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (id, bal) in [(1i64, 50i64), (2, 10), (3, 90)] {
        db.insert(&mut txn, "accounts", row![id, 0i64, bal]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    db.harness().verify_view("branch_minmax").unwrap();

    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let (_, aggs) = db.view_aggregates(&mut r, "branch_minmax", &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(aggs, vec![Value::Int(10), Value::Int(90)]);
    db.commit(&mut r).unwrap();

    // Deleting the current minimum forces recomputation.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "accounts", &[Value::Int(2)]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view("branch_minmax").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let (_, aggs) = db.view_aggregates(&mut r, "branch_minmax", &[Value::Int(0)]).unwrap().unwrap();
    assert_eq!(aggs, vec![Value::Int(50), Value::Int(90)]);
    db.commit(&mut r).unwrap();
}

#[test]
fn filtered_view_only_counts_qualifying_rows() {
    let db = Database::new_in_memory(512);
    let t = db.create_table("accounts", accounts_schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "rich".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::Cmp {
            col: 2,
            op: txview_engine::CmpOp::Ge,
            value: Value::Int(100),
        },
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "accounts", row![1i64, 0i64, 50i64]).unwrap(); // filtered out
    db.insert(&mut txn, "accounts", row![2i64, 0i64, 150i64]).unwrap();
    // Update crosses the filter boundary: row 1 now qualifies.
    db.update(&mut txn, "accounts", row![1i64, 0i64, 120i64]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view("rich").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut r, "rich", &[Value::Int(0)]).unwrap().unwrap(),
        (2, vec![Value::Int(270)])
    );
    db.commit(&mut r).unwrap();
}

#[test]
fn join_view_maintained_through_fact_dml() {
    let db = Database::new_in_memory(512);
    let dim_schema = Schema::new(
        vec![
            Column::new("pk", ValueType::Int),
            Column::new("region", ValueType::Str),
        ],
        vec![0],
    )
    .unwrap();
    let dim = db.create_table("stores", dim_schema).unwrap();
    let fact_schema = Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("store", ValueType::Int),
            Column::new("amount", ValueType::Int),
        ],
        vec![0],
    )
    .unwrap();
    let fact = db.create_table("sales", fact_schema).unwrap();

    // Dims first (the engine freezes dim DML once the view exists).
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "stores", row![1i64, "west"]).unwrap();
    db.insert(&mut txn, "stores", row![2i64, "east"]).unwrap();
    db.commit(&mut txn).unwrap();

    db.create_indexed_view(ViewSpec {
        name: "revenue_by_region".into(),
        source: ViewSource::Join { fact, fact_fk_col: 1, dim, dim_group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "sales", row![1i64, 1i64, 10i64]).unwrap();
    db.insert(&mut txn, "sales", row![2i64, 1i64, 20i64]).unwrap();
    db.insert(&mut txn, "sales", row![3i64, 2i64, 40i64]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view("revenue_by_region").unwrap();

    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.view_aggregates(&mut r, "revenue_by_region", &[Value::Str("west".into())])
            .unwrap()
            .unwrap(),
        (2, vec![Value::Int(30)])
    );
    db.commit(&mut r).unwrap();

    // Dim DML is frozen while a join view references it.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let err = db.insert(&mut txn, "stores", row![3i64, "north"]).unwrap_err();
    assert!(matches!(err, Error::InvalidOperation(_)));
    db.rollback(&mut txn).unwrap();
}

#[test]
fn deferred_view_goes_stale_and_refreshes() {
    let db = Database::new_in_memory(512);
    let t = db.create_table("accounts", accounts_schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "lazy".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: true,
        eager_group_delete: false,
    })
    .unwrap();
    load_accounts(&db, 10, 2, 100);
    assert_eq!(db.harness().deferred_staleness("lazy").unwrap(), 10);
    // The view is stale: verify must fail.
    assert!(db.harness().verify_view("lazy").is_err());
    let n = db.harness().refresh_deferred_view("lazy").unwrap();
    assert_eq!(n, 2);
    assert_eq!(db.harness().deferred_staleness("lazy").unwrap(), 0);
    db.harness().verify_view("lazy").unwrap();
}

#[test]
fn multiple_views_maintained_in_one_txn() {
    let db = Database::new_in_memory(512);
    let t = db.create_table("accounts", accounts_schema()).unwrap();
    for i in 0..4 {
        db.create_indexed_view(ViewSpec {
            name: format!("v{i}"),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
        })
        .unwrap();
    }
    load_accounts(&db, 20, 4, 10);
    for i in 0..4 {
        db.harness().verify_view(&format!("v{i}")).unwrap();
    }
}

#[test]
fn view_scan_ranges_and_isolation() {
    let (db, view) = setup(MaintenanceMode::Escrow);
    load_accounts(&db, 30, 6, 10);
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let rows = db.view_scan(&mut r, view, Some(&[Value::Int(1)]), Some(&[Value::Int(4)])).unwrap();
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].get(0), &Value::Int(1));
    assert_eq!(rows[2].get(0), &Value::Int(3));
    db.commit(&mut r).unwrap();

    let mut s = db.begin(IsolationLevel::Snapshot);
    let rows = db.view_scan(&mut s, view, None, None).unwrap();
    assert_eq!(rows.len(), 6);
    db.commit(&mut s).unwrap();
}
