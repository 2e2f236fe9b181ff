//! End-to-end durability: a file-backed database survives process
//! "restarts" (drop + reopen) with WAL recovery and catalog reload.

use std::time::Duration;
use txview_repro::prelude::*;
use txview_repro::row;

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("txview-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("grp", ValueType::Int),
            Column::new("amount", ValueType::Int),
        ],
        vec![0],
    )
    .unwrap()
}

#[test]
fn reopen_recovers_committed_state_and_catalog() {
    let dir = fresh_dir("reopen");
    {
        let (db, _) = Database::open_dir(&dir, 256, Duration::from_secs(5)).unwrap();
        let t = db.create_table("orders", schema()).unwrap();
        db.create_indexed_view(ViewSpec {
            name: "by_grp".into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
        })
        .unwrap();
        db.create_index("orders_by_grp", "orders", &[1], false).unwrap();
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..50i64 {
            db.insert(&mut txn, "orders", row![i, i % 5, 10i64]).unwrap();
        }
        db.commit(&mut txn).unwrap();
        // One loser in flight at "process exit".
        let mut loser = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut loser, "orders", row![999i64, 0i64, 12345i64]).unwrap();
        // Force the loser's records to disk (as a page steal would), so
        // recovery must actively undo it rather than never see it.
        db.log().flush_all().unwrap();
        std::mem::forget(loser);
        // NO checkpoint: the drop models a hard kill.
    }
    {
        let (db, report) = Database::open_dir(&dir, 256, Duration::from_secs(5)).unwrap();
        assert!(report.redo_applied > 0, "recovery redid committed work");
        assert_eq!(report.losers, 1, "the in-flight txn was undone");
        db.harness().verify_view("by_grp").unwrap();
        db.harness().verify_index("orders_by_grp").unwrap();
        let rows = db.harness().dump_table("orders").unwrap();
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|r| r.get(0).as_int().unwrap() != 999));

        // The reopened database is fully usable.
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut txn, "orders", row![100i64, 2i64, 7i64]).unwrap();
        db.commit(&mut txn).unwrap();
        db.harness().verify_view("by_grp").unwrap();
    }
    {
        // Third open: everything still there, recovery idempotent, and the
        // secondary index answers queries.
        let (db, _) = Database::open_dir(&dir, 256, Duration::from_secs(5)).unwrap();
        db.harness().verify_view("by_grp").unwrap();
        db.harness().verify_index("orders_by_grp").unwrap();
        assert_eq!(db.harness().dump_table("orders").unwrap().len(), 51);
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        let grp2 = db.get_by_index(&mut txn, "orders_by_grp", &[Value::Int(2)]).unwrap();
        assert_eq!(grp2.len(), 11);
        db.commit(&mut txn).unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopen_after_heavy_load_with_splits() {
    let dir = fresh_dir("splits");
    {
        let (db, _) = Database::open_dir(&dir, 512, Duration::from_secs(5)).unwrap();
        let t = db.create_table("orders", schema()).unwrap();
        db.create_indexed_view(ViewSpec {
            name: "by_grp".into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
        })
        .unwrap();
        // Enough rows to force many leaf splits (system transactions whose
        // effects must survive even though no user checkpoint follows).
        for batch in 0..20i64 {
            let mut txn = db.begin(IsolationLevel::ReadCommitted);
            for i in 0..100i64 {
                let id = batch * 100 + i;
                db.insert(&mut txn, "orders", row![id, id % 50, 1i64]).unwrap();
            }
            db.commit(&mut txn).unwrap();
        }
    }
    {
        let (db, report) = Database::open_dir(&dir, 512, Duration::from_secs(5)).unwrap();
        assert_eq!(report.losers, 0);
        db.harness().verify_view("by_grp").unwrap();
        assert_eq!(db.harness().dump_table("orders").unwrap().len(), 2000);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_shrinks_recovery_work() {
    let dir = fresh_dir("ckpt");
    let analysis_without;
    let analysis_with;
    {
        let (db, _) = Database::open_dir(&dir, 256, Duration::from_secs(5)).unwrap();
        db.create_table("orders", schema()).unwrap();
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..500i64 {
            db.insert(&mut txn, "orders", row![i, 0i64, 1i64]).unwrap();
        }
        db.commit(&mut txn).unwrap();
    }
    {
        let (db, report) = Database::open_dir(&dir, 256, Duration::from_secs(5)).unwrap();
        analysis_without = report.analysis_records;
        // Now checkpoint: the next recovery should scan far less.
        db.pool().flush_all().unwrap();
        db.checkpoint().unwrap();
    }
    {
        let (_db, report) = Database::open_dir(&dir, 256, Duration::from_secs(5)).unwrap();
        analysis_with = report.analysis_records;
    }
    assert!(
        analysis_with < analysis_without / 10,
        "checkpoint bounds analysis: {analysis_with} vs {analysis_without}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every view in the catalog sidecar carries one reserved tag byte, always
/// 0. Tag 1 once attached a hash index; that structure is gone and the tag
/// is never reused, so a catalog carrying any nonzero tag is refused as
/// corruption by the catalog decoder. A catalog with the byte at 0 — the
/// layout every catalog without a hash index was written in — still opens.
#[test]
fn catalog_view_tag_is_reserved_zero() {
    let dir = fresh_dir("viewtag");
    {
        let (db, _) = Database::open_dir(&dir, 64, Duration::from_secs(5)).unwrap();
        let t = db.create_table("orders", schema()).unwrap();
        db.create_indexed_view(ViewSpec {
            name: "by_grp".into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
        })
        .unwrap();
    }
    let path = dir.join("catalog.bin");
    let written = std::fs::read(&path).unwrap();
    // The last view's tag byte sits just before the secondary-index count
    // (a 4-byte zero: this catalog has no secondary index).
    let tag_at = written.len() - 5;
    assert_eq!(&written[tag_at..], &[0, 0, 0, 0, 0], "reserved tag, then no indexes");
    {
        let (db, _) = Database::open_dir(&dir, 64, Duration::from_secs(5)).unwrap();
        db.harness().verify_view("by_grp").unwrap();
    }
    for tag in [1u8, 2, 255] {
        let mut bytes = written.clone();
        bytes[tag_at] = tag;
        std::fs::write(&path, &bytes).unwrap();
        match Database::open_dir(&dir, 64, Duration::from_secs(5)) {
            Err(Error::Corruption(m)) => assert!(m.contains(&format!("bad view tag {tag}")), "{m}"),
            Err(e) => panic!("tag {tag}: expected corruption, got {e}"),
            Ok(_) => panic!("tag {tag}: a catalog with a nonzero view tag opened"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
