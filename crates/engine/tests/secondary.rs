//! Secondary-index behaviour: maintenance through DML, uniqueness,
//! rollback, crash recovery, ghost cleanup, and reads.

use std::sync::Arc;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Error, Value};
use txview_engine::{Database, IsolationLevel};

/// users(id PK, email STR, city STR)
fn setup() -> Arc<Database> {
    let db = Database::new_in_memory(512);
    db.create_table(
        "users",
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("email", ValueType::Str),
                Column::new("city", ValueType::Str),
            ],
            vec![0],
        )
        .unwrap(),
    )
    .unwrap();
    db
}

fn load(db: &Database) {
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (id, email, city) in [
        (1i64, "a@x.com", "berlin"),
        (2, "b@x.com", "paris"),
        (3, "c@x.com", "berlin"),
        (4, "d@x.com", "rome"),
    ] {
        db.insert(&mut txn, "users", row![id, email, city]).unwrap();
    }
    db.commit(&mut txn).unwrap();
}

#[test]
fn index_built_from_existing_rows_and_maintained() {
    let db = setup();
    load(&db);
    db.create_index("by_city", "users", &[2], false).unwrap();
    db.harness().verify_index("by_city").unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let rows = db.get_by_index(&mut txn, "by_city", &[Value::Str("berlin".into())]).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].get(0), &Value::Int(1));
    assert_eq!(rows[1].get(0), &Value::Int(3));

    // DML keeps it current: insert, move a user between cities, delete.
    db.insert(&mut txn, "users", row![5i64, "e@x.com", "berlin"]).unwrap();
    db.update(&mut txn, "users", row![1i64, "a@x.com", "rome"]).unwrap();
    db.delete(&mut txn, "users", &[Value::Int(3)]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_index("by_city").unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let berlin = db.get_by_index(&mut txn, "by_city", &[Value::Str("berlin".into())]).unwrap();
    assert_eq!(berlin.len(), 1);
    assert_eq!(berlin[0].get(0), &Value::Int(5));
    let rome = db.get_by_index(&mut txn, "by_city", &[Value::Str("rome".into())]).unwrap();
    assert_eq!(rome.len(), 2);
    db.commit(&mut txn).unwrap();
}

#[test]
fn unique_index_enforced() {
    let db = setup();
    load(&db);
    db.create_index("by_email", "users", &[1], true).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let err = db.insert(&mut txn, "users", row![9i64, "a@x.com", "oslo"]).unwrap_err();
    assert!(matches!(err, Error::DuplicateKey(_)));
    db.rollback(&mut txn).unwrap();
    db.harness().verify_index("by_email").unwrap();

    // Building a unique index over already-duplicate data fails.
    let db2 = setup();
    let mut txn = db2.begin(IsolationLevel::ReadCommitted);
    db2.insert(&mut txn, "users", row![1i64, "same@x.com", "oslo"]).unwrap();
    db2.insert(&mut txn, "users", row![2i64, "same@x.com", "kiel"]).unwrap();
    db2.commit(&mut txn).unwrap();
    assert!(db2.create_index("by_email2", "users", &[1], true).is_err());
}

#[test]
fn rollback_restores_index_exactly() {
    let db = setup();
    load(&db);
    db.create_index("by_city", "users", &[2], false).unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "users", row![6i64, "f@x.com", "berlin"]).unwrap();
    db.update(&mut txn, "users", row![2i64, "b@x.com", "berlin"]).unwrap();
    db.delete(&mut txn, "users", &[Value::Int(4)]).unwrap();
    db.rollback(&mut txn).unwrap();
    db.harness().verify_index("by_city").unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(
        db.get_by_index(&mut txn, "by_city", &[Value::Str("berlin".into())]).unwrap().len(),
        2
    );
    assert_eq!(
        db.get_by_index(&mut txn, "by_city", &[Value::Str("rome".into())]).unwrap().len(),
        1
    );
    db.commit(&mut txn).unwrap();
}

#[test]
fn delete_reinsert_same_key_in_one_txn() {
    // Exercises the ghost-revive path of secondary entries.
    let db = setup();
    load(&db);
    db.create_index("by_city", "users", &[2], false).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "users", &[Value::Int(1)]).unwrap();
    db.insert(&mut txn, "users", row![1i64, "a2@x.com", "berlin"]).unwrap();
    db.commit(&mut txn).unwrap();
    db.harness().verify_index("by_city").unwrap();
    // And rolled back.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "users", &[Value::Int(2)]).unwrap();
    db.insert(&mut txn, "users", row![2i64, "b2@x.com", "paris"]).unwrap();
    db.rollback(&mut txn).unwrap();
    db.harness().verify_index("by_city").unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let rows = db.get_by_index(&mut txn, "by_city", &[Value::Str("paris".into())]).unwrap();
    assert_eq!(rows[0].get(1), &Value::Str("b@x.com".into()), "original row back");
    db.commit(&mut txn).unwrap();
}

#[test]
fn crash_recovery_covers_indexes() {
    let db = setup();
    load(&db);
    db.create_index("by_city", "users", &[2], false).unwrap();
    // Committed change.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "users", row![7i64, "g@x.com", "paris"]).unwrap();
    db.commit(&mut txn).unwrap();
    // Loser in flight.
    let mut loser = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut loser, "users", row![8i64, "h@x.com", "paris"]).unwrap();
    db.log().flush_all().unwrap();
    std::mem::forget(loser);
    db.crash_and_recover(0.5, 7).unwrap();
    db.harness().verify_index("by_city").unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let paris = db.get_by_index(&mut txn, "by_city", &[Value::Str("paris".into())]).unwrap();
    assert_eq!(paris.len(), 2, "committed insert kept, loser undone");
    db.commit(&mut txn).unwrap();
}

#[test]
fn ghost_cleanup_removes_index_ghosts() {
    let db = setup();
    load(&db);
    db.create_index("by_city", "users", &[2], false).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "users", &[Value::Int(4)]).unwrap();
    db.commit(&mut txn).unwrap();
    let report = db.run_ghost_cleanup().unwrap();
    assert!(report.removed >= 2, "base ghost + index-entry ghost: {report:?}");
    db.harness().verify_index("by_city").unwrap();
}

#[test]
fn serializable_index_probe_blocks_phantoms() {
    let db = setup();
    load(&db);
    db.create_index("by_city", "users", &[2], false).unwrap();
    let mut reader = db.begin(IsolationLevel::Serializable);
    let rows = db.get_by_index(&mut reader, "by_city", &[Value::Str("berlin".into())]).unwrap();
    assert_eq!(rows.len(), 2);
    // A writer inserting into the probed range must wait for the reader.
    let db2 = Arc::clone(&db);
    let h = std::thread::spawn(move || {
        let mut w = db2.begin(IsolationLevel::ReadCommitted);
        
        w.is_active() && {
            let r = db2.insert(&mut w, "users", row![50i64, "z@x.com", "berlin"]);
            if r.is_ok() {
                db2.commit(&mut w).is_ok()
            } else {
                let _ = db2.rollback(&mut w);
                false
            }
        }
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    // Re-probe: unchanged while the reader lives.
    let rows = db.get_by_index(&mut reader, "by_city", &[Value::Str("berlin".into())]).unwrap();
    assert_eq!(rows.len(), 2, "no phantom for the serializable reader");
    db.commit(&mut reader).unwrap();
    assert!(h.join().unwrap(), "writer proceeds after reader commits");
    db.harness().verify_index("by_city").unwrap();
}
