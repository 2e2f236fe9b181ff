//! Coverage for richer view shapes: composite (multi-column, mixed-type)
//! group-by keys, FLOAT sums, multiple aggregates per view, and filtered
//! escrow maintenance — all under concurrency, rollback, and crash.

use std::sync::Arc;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Value};
use txview_engine::{
    AggSpec, CmpOp, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

/// trades(id, region STR, desk INT, qty INT, notional FLOAT)
fn setup() -> Arc<Database> {
    let db = Database::new_in_memory(1024);
    let t = db
        .create_table(
            "trades",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("region", ValueType::Str),
                    Column::new("desk", ValueType::Int),
                    Column::new("qty", ValueType::Int),
                    Column::new("notional", ValueType::Float),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
    // Composite group key (STR, INT), two aggregates (INT and FLOAT sums),
    // and a filter.
    db.create_indexed_view(ViewSpec {
        name: "desk_totals".into(),
        source: ViewSource::Single { table: t, group_by: vec![1, 2] },
        aggs: vec![AggSpec::SumInt { col: 3 }, AggSpec::SumFloat { col: 4 }],
        filter: Predicate::Cmp { col: 3, op: CmpOp::Gt, value: Value::Int(0) },
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    db
}

fn trade(id: i64, region: &str, desk: i64, qty: i64, notional: f64) -> txview_common::Row {
    row![id, region, desk, qty, notional]
}

#[test]
fn composite_keys_and_mixed_aggregates() {
    let db = setup();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "trades", trade(1, "emea", 1, 100, 10.5)).unwrap();
    db.insert(&mut txn, "trades", trade(2, "emea", 1, 50, 2.25)).unwrap();
    db.insert(&mut txn, "trades", trade(3, "emea", 2, 70, 1.0)).unwrap();
    db.insert(&mut txn, "trades", trade(4, "apac", 1, 30, 4.0)).unwrap();
    db.insert(&mut txn, "trades", trade(5, "apac", 1, 0, 99.0)).unwrap(); // filtered out
    db.commit(&mut txn).unwrap();
    db.harness().verify_view("desk_totals").unwrap();

    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let (count, aggs) = db
        .view_aggregates(&mut r, "desk_totals", &[Value::Str("emea".into()), Value::Int(1)])
        .unwrap()
        .unwrap();
    assert_eq!(count, 2);
    assert_eq!(aggs[0], Value::Int(150));
    assert_eq!(aggs[1], Value::Float(12.75));
    // Filtered-out row contributed nothing.
    let (count, _) = db
        .view_aggregates(&mut r, "desk_totals", &[Value::Str("apac".into()), Value::Int(1)])
        .unwrap()
        .unwrap();
    assert_eq!(count, 1);
    db.commit(&mut r).unwrap();
}

#[test]
fn range_scan_over_composite_prefix() {
    let db = setup();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (id, region, desk) in
        [(1i64, "apac", 1i64), (2, "emea", 1), (3, "emea", 2), (4, "emea", 9), (5, "us", 1)]
    {
        db.insert(&mut txn, "trades", trade(id, region, desk, 10, 1.0)).unwrap();
    }
    db.commit(&mut txn).unwrap();
    let mut r = db.begin(IsolationLevel::Serializable);
    // All emea desks: [("emea", MIN) .. ("emea"+ε)).
    let rows = db
        .view_scan(
            &mut r,
            "desk_totals",
            Some(&[Value::Str("emea".into())]),
            Some(&[Value::Str("emea\u{1}".into())]),
        )
        .unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|row| row.get(0) == &Value::Str("emea".into())));
    db.commit(&mut r).unwrap();
}

#[test]
fn float_sums_survive_rollback_and_crash_exactly() {
    let db = setup();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    // Powers of two: float arithmetic is exact, so verification is too.
    db.insert(&mut txn, "trades", trade(1, "us", 7, 5, 0.5)).unwrap();
    db.insert(&mut txn, "trades", trade(2, "us", 7, 5, 0.25)).unwrap();
    db.commit(&mut txn).unwrap();

    // Rollback of float escrow deltas restores the exact bits.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "trades", trade(3, "us", 7, 5, 0.125)).unwrap();
    db.update(&mut txn, "trades", trade(1, "us", 7, 5, 8.5)).unwrap();
    db.rollback(&mut txn).unwrap();
    db.harness().verify_view("desk_totals").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let (_, aggs) = db
        .view_aggregates(&mut r, "desk_totals", &[Value::Str("us".into()), Value::Int(7)])
        .unwrap()
        .unwrap();
    assert_eq!(aggs[1], Value::Float(0.75));
    db.commit(&mut r).unwrap();

    // Crash with a float-escrow loser in flight.
    let mut loser = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut loser, "trades", trade(9, "us", 7, 5, 1024.0)).unwrap();
    db.log().flush_all().unwrap();
    std::mem::forget(loser);
    db.crash_and_recover(0.5, 21).unwrap();
    db.harness().verify_view("desk_totals").unwrap();
}

#[test]
fn concurrent_writers_on_composite_hot_groups() {
    let db = setup();
    let handles: Vec<_> = (0..6u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..100u64 {
                    let id = (t * 1_000 + i) as i64 + 1;
                    let region = ["emea", "apac"][(i % 2) as usize];
                    db.run_txn(IsolationLevel::ReadCommitted, 10, |txn| {
                        db.insert(txn, "trades", trade(id, region, 1, 2, 0.5))
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    db.harness().verify_view("desk_totals").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let (count, aggs) = db
        .view_aggregates(&mut r, "desk_totals", &[Value::Str("emea".into()), Value::Int(1)])
        .unwrap()
        .unwrap();
    assert_eq!(count, 300);
    assert_eq!(aggs[0], Value::Int(600));
    assert_eq!(aggs[1], Value::Float(150.0));
    db.commit(&mut r).unwrap();
}

#[test]
fn update_moving_between_composite_groups() {
    let db = setup();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "trades", trade(1, "emea", 1, 10, 1.0)).unwrap();
    // Move desk AND region.
    db.update(&mut txn, "trades", trade(1, "us", 3, 10, 1.0)).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_view("desk_totals").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert!(db
        .view_aggregates(&mut r, "desk_totals", &[Value::Str("emea".into()), Value::Int(1)])
        .unwrap()
        .is_none());
    assert!(db
        .view_aggregates(&mut r, "desk_totals", &[Value::Str("us".into()), Value::Int(3)])
        .unwrap()
        .is_some());
    db.commit(&mut r).unwrap();
}
