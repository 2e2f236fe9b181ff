//! Quickstart: create a table and an indexed view, run transactions,
//! watch the view stay transactionally consistent — including through a
//! rollback and a simulated crash.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use txview_repro::prelude::*;
use txview_repro::row;

fn main() -> Result<()> {
    // An in-memory database: MemDisk + in-memory WAL (a FileDisk/FileLog
    // variant exists via Database::with_parts).
    let db = Database::new_in_memory(1024);

    // accounts(id INT PK, branch INT, balance INT)
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

    // CREATE VIEW branch_balance AS
    //   SELECT branch, COUNT_BIG(*), SUM(balance) FROM accounts GROUP BY branch
    // ... maintained immediately, with escrow locking (the paper's protocol).
    db.create_indexed_view(ViewSpec {
        name: "branch_balance".into(),
        source: ViewSource::Single { table: accounts, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })?;

    // Insert some accounts in one transaction.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..10i64 {
        db.insert(&mut txn, "accounts", row![i, i % 3, 100i64])?;
    }
    db.commit(&mut txn)?;

    // Read the view.
    let mut reader = db.begin(IsolationLevel::ReadCommitted);
    println!("branch totals after load:");
    for r in db.view_scan(&mut reader, "branch_balance", None, None)? {
        println!("  branch {} -> count {}, sum {}", r.get(0), r.get(1), r.get(2));
    }
    db.commit(&mut reader)?;

    // A transaction that rolls back leaves no trace in the view.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "accounts", row![99i64, 0i64, 1_000_000i64])?;
    db.rollback(&mut txn)?;
    db.harness().verify_view("branch_balance")?;
    println!("rollback left the view consistent ✓");

    // Crash with an in-flight transaction; ARIES recovery repairs
    // everything (redo committed work, logically undo the loser).
    let mut loser = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut loser, "accounts", row![500i64, 1i64, 777i64])?;
    std::mem::forget(loser);
    let report = db.crash_and_recover(0.5, 42)?;
    println!(
        "recovered: {} redo ops applied, {} loser txn(s), {} logical undo(s)",
        report.redo_applied, report.losers, report.logical_undos
    );
    db.harness().verify_view("branch_balance")?;
    println!("post-crash view verified against base ✓");

    Ok(())
}
