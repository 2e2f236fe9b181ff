//! The log volume of one commit of each shape, pinned to the byte.
//!
//! On the default `Bank` with `chain_depth` 1 (8,192 accounts, 8
//! `branch_balance` rows and the global rollup row over them), a deposit
//! commit logs, and only logs:
//!
//! * per deposit, the base row's changed byte range (one byte of the
//!   balance here) with its logical undo: the old bytes at that offset;
//! * per touched view row, one escrow record carrying the nonzero deltas
//!   once, for redo and undo;
//! * one Commit, which closes the bracket the first record opened.
//!
//! A transaction that logs no page record appends nothing at all. A log
//! size regression fails here, not only in the benchmark.

use txview_common::{Result, Value};
use txview_engine::{Database, IsolationLevel};
use txview_wal::record::{RecordBody, RedoOp, UndoOp};
use txview_workload::bank::{Bank, BankConfig, VIEW};

/// What one record is, for the pinned tables below.
fn kind(body: &RecordBody) -> &'static str {
    match body {
        RecordBody::Update { redo: RedoOp::SlotPatch { .. }, undo: UndoOp::IndexPatch { .. }, .. } => "base",
        RecordBody::Update { redo: RedoOp::SlotAdd { .. }, undo: UndoOp::Escrow { .. }, .. } => "escrow",
        RecordBody::Commit => "commit",
        _ => "other",
    }
}

fn bank() -> Bank {
    let bank = Bank::setup(BankConfig { chain_depth: 1, ..Default::default() }).unwrap();
    bank.db.pool().flush_all().unwrap();
    bank.db.checkpoint().unwrap();
    bank
}

/// Deposit `amount` into each of `accounts` in one transaction; returns
/// each record the commit appended as (kind, bytes), and the total bytes.
fn deposit(db: &Database, accounts: &[i64], amount: i64) -> (Vec<(&'static str, usize)>, u64) {
    let log = db.log();
    let (from, bytes_before) = (log.end_lsn(), log.appended_bytes());
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for &a in accounts {
        db.update_with(&mut txn, "accounts", &[Value::Int(a)], |r| {
            let mut out = r.clone();
            out.set(2, Value::Int(r.get(2).as_int().unwrap() + amount));
            out
        })
        .unwrap();
    }
    db.commit(&mut txn).unwrap();
    let total = log.appended_bytes() - bytes_before;
    let recs = log.read_durable_from(from.0).unwrap();
    assert!(recs.iter().all(|r| r.txn == txn.id), "only the deposit's records were appended");
    let sizes = recs.iter().map(|r| (kind(&r.body), r.encode_framed().len())).collect();
    (sizes, total)
}

/// Bytes the log appends while `f` runs.
fn appended(db: &Database, f: impl FnOnce(&Database) -> Result<()>) -> u64 {
    let before = db.log().appended_bytes();
    f(db).unwrap();
    db.log().appended_bytes() - before
}

/// The `hot-escrow` shape: four deposits on four branches, cascading to
/// the rollup row at commit — 10 records, 369 bytes (1,222 in 12 records
/// under log format version 1).
#[test]
fn four_deposit_chained_commit_is_pinned() {
    let bank = bank();
    let (records, total) = deposit(&bank.db, &[10, 2001, 4003, 8004], 5);
    let (base, esc) = (("base", 41), ("escrow", 37));
    let want = vec![base, esc, base, esc, base, esc, base, esc, esc, ("commit", 20)];
    assert_eq!(records, want);
    assert_eq!(total, 369);
}

/// The shape every other workload runs: one deposit — 3 records, 98
/// bytes (362 in 5 records under log format version 1).
#[test]
fn one_deposit_commit_is_pinned() {
    let bank = Bank::setup(BankConfig::default()).unwrap();
    bank.db.checkpoint().unwrap();
    let (records, total) = deposit(&bank.db, &[4003], 7);
    assert_eq!(records, vec![("base", 41), ("escrow", 37), ("commit", 20)]);
    assert_eq!(total, 98);
}

/// A transaction that logs no page record — a reader committing or
/// rolling back, a writer whose update changed no byte — appends nothing.
/// (A split that finds nothing to split appends nothing either:
/// `tree::tests::split_with_room_appends_nothing` in `txview-btree`.)
#[test]
fn logless_transactions_append_nothing() {
    let bank = bank();
    let db = &bank.db;
    for iso in [IsolationLevel::ReadCommitted, IsolationLevel::Serializable, IsolationLevel::Snapshot] {
        let n = appended(db, |db| {
            let mut txn = db.begin(iso);
            db.get_row(&mut txn, "accounts", &[Value::Int(7)])?;
            db.view_lookup(&mut txn, VIEW, &[Value::Int(3)])?;
            let lsn = db.commit(&mut txn)?;
            assert_eq!(lsn, db.log().end_lsn(), "a reader commits at the log's end");
            let mut txn = db.begin(iso);
            db.get_row(&mut txn, "accounts", &[Value::Int(7)])?;
            db.rollback(&mut txn)
        });
        assert_eq!(n, 0, "{iso:?} reader");
    }
    let n = appended(db, |db| {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        db.update_with(&mut txn, "accounts", &[Value::Int(7)], |r| r.clone())?;
        db.commit(&mut txn).map(drop)
    });
    assert_eq!(n, 0, "an update that changes no byte");
}
