//! End-to-end durability: a file-backed database survives process
//! "restarts" (drop + reopen) with WAL recovery and catalog reload.

use std::time::Duration;
use txview_repro::common::frame;
use txview_repro::engine::catalog::{Catalog, CATALOG_HEADER};
use txview_repro::prelude::*;
use txview_repro::row;
use txview_repro::workload::bank::{Bank, BankConfig};

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
    // Re-seal each patched body in a good frame, so that the tag itself is
    // what gets refused, not the frame's checksum.
    let body_at = CATALOG_HEADER.len() + frame::HEADER_LEN;
    for tag in [1u8, 2, 255] {
        let mut body = written[body_at..].to_vec();
        body[tag_at - body_at] = tag;
        std::fs::write(&path, [&CATALOG_HEADER[..], &frame::encode(&body)].concat()).unwrap();
        match Database::open_dir(&dir, 64, Duration::from_secs(5)) {
            Err(Error::Corruption(m)) => assert!(m.contains(&format!("bad view tag {tag}")), "{m}"),
            Err(e) => panic!("tag {tag}: expected corruption, got {e}"),
            Ok(_) => panic!("tag {tag}: a catalog with a nonzero view tag opened"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A directory holding one table and one escrow view over it, and the
/// body of its `catalog.bin` (header and frame header skipped).
fn one_view_dir(tag: &str) -> (std::path::PathBuf, Vec<u8>) {
    let dir = fresh_dir(tag);
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
    let written = std::fs::read(dir.join("catalog.bin")).unwrap();
    let body = written[CATALOG_HEADER.len() + frame::HEADER_LEN..].to_vec();
    (dir, body)
}

/// Re-seal `body` in a good frame as the directory's catalog, so that the
/// decoder, not the checksum, is what must refuse it.
fn write_sealed_catalog(dir: &std::path::Path, body: &[u8]) {
    std::fs::write(dir.join("catalog.bin"), [&CATALOG_HEADER[..], &frame::encode(body)].concat())
        .unwrap();
}

fn assert_open_refused(dir: &std::path::Path, want: &str) {
    match Database::open_dir(dir, 64, Duration::from_secs(5)) {
        Err(Error::Corruption(m)) => assert!(m.contains(want), "{m}"),
        Err(e) => panic!("expected corruption naming {want:?}, got {e}"),
        Ok(_) => panic!("a catalog that should name {want:?} opened"),
    }
}

/// A view's maintenance byte is 0 (escrow) or 1 (X-lock). Any other value
/// is corruption, not X-lock.
#[test]
fn catalog_maintenance_byte_other_than_0_or_1_is_corruption() {
    let (dir, body) = one_view_dir("maintbyte");
    // From the end: no secondary index (4), the reserved tag (1), one group
    // type (1 + 2), the view's root and index (4 + 4), two bools (2).
    let maintenance_at = body.len() - 19;
    assert_eq!(body[maintenance_at], 0, "escrow");
    for m in [2u8, 3, 255] {
        let mut patched = body.clone();
        patched[maintenance_at] = m;
        write_sealed_catalog(&dir, &patched);
        assert_open_refused(&dir, &format!("bad maintenance mode {m}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The body ends with its last secondary index; bytes after it are
/// corruption, not ignored.
#[test]
fn catalog_bytes_after_the_last_index_are_corruption() {
    let (dir, body) = one_view_dir("trailing");
    for extra in [&[0u8][..], &[0, 0, 0, 0], &[7; 9]] {
        write_sealed_catalog(&dir, &[&body[..], extra].concat());
        assert_open_refused(&dir, "after the catalog");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The master pointer file is exactly (LSN, epoch). One of any other
/// length — here a torn 5-byte write — is corruption, not "no checkpoint"
/// (which would send restart down the wrong path without a word).
#[test]
fn short_master_file_is_corruption() {
    let dir = fresh_dir("shortmaster");
    {
        let (db, _) = Database::open_dir(&dir, 64, Duration::from_secs(5)).unwrap();
        db.create_table("orders", schema()).unwrap();
        db.checkpoint().unwrap();
    }
    std::fs::write(dir.join("wal.log.master"), [1u8, 2, 3, 4, 5]).unwrap();
    match Database::open_dir(&dir, 64, Duration::from_secs(5)) {
        Err(Error::Corruption(m)) => assert!(m.contains("master"), "{m}"),
        Err(e) => panic!("expected corruption, got {e}"),
        Ok(_) => panic!("a 5-byte master file opened"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Only a missing catalog means "no catalog". A catalog path that cannot
/// be read (here: a directory stands in its place) is an error, not an
/// empty database.
#[test]
fn unreadable_catalog_is_an_error() {
    let dir = fresh_dir("catalogdir");
    {
        let (db, _) = Database::open_dir(&dir, 64, Duration::from_secs(5)).unwrap();
        db.create_table("orders", schema()).unwrap();
    }
    std::fs::remove_file(dir.join("catalog.bin")).unwrap();
    std::fs::create_dir(dir.join("catalog.bin")).unwrap();
    assert!(Database::open_dir(&dir, 64, Duration::from_secs(5)).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every single-bit flip of an encoded catalog is refused. The catalog is
/// a bank's: one table, its view, and one view derived from that. A flip
/// that decoded would silently redefine a view (an aggregate column, a
/// group-by index, the maintenance mode) after restart.
#[test]
fn every_catalog_bit_flip_is_refused() {
    let cfg = BankConfig { accounts: 16, branches: 4, pool_pages: 64, chain_depth: 1, ..Default::default() };
    let bytes = Bank::setup(cfg).unwrap().db.export_catalog();
    let (mut accepted, mut different) = (0, 0);
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        if let Ok(cat) = Catalog::decode(&flipped) {
            accepted += 1;
            different += usize::from(cat.encode() != bytes);
        }
    }
    let flips = bytes.len() * 8;
    assert_eq!(accepted, 0, "{accepted} of {flips} flips decoded, {different} to another catalog");

    // And on disk: flip the view's maintenance byte (escrow, 0) to X-lock.
    let dir = fresh_dir("catalogflip");
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
    let mut bytes = std::fs::read(&path).unwrap();
    // From the end: no secondary index (4), the reserved tag (1), one group
    // type (1 + 2), the view's root and index (4 + 4), two bools (2).
    let maintenance_at = bytes.len() - 19;
    assert_eq!(bytes[maintenance_at], 0, "escrow");
    bytes[maintenance_at] ^= 1;
    std::fs::write(&path, &bytes).unwrap();
    match Database::open_dir(&dir, 64, Duration::from_secs(5)) {
        Err(Error::Corruption(m)) => assert!(m.contains("catalog"), "{m}"),
        Err(e) => panic!("expected corruption, got {e}"),
        Ok(_) => panic!("a catalog with a flipped bit opened"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every single-bit flip of the master file makes `open_dir` fail with
/// `Corruption` naming the master. A flipped epoch that opened would give
/// a follower another term, since it takes the stored epoch as its own.
#[test]
fn every_master_bit_flip_is_refused() {
    let dir = fresh_dir("masterflips");
    {
        let (db, _) = Database::open_dir(&dir, 64, Duration::from_secs(5)).unwrap();
        db.create_table("orders", schema()).unwrap();
        db.checkpoint().unwrap();
    }
    let path = dir.join("wal.log.master");
    let master = std::fs::read(&path).unwrap();
    let mut silent = Vec::new();
    for bit in 0..master.len() * 8 {
        let mut flipped = master.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &flipped).unwrap();
        match Database::open_dir(&dir, 64, Duration::from_secs(5)) {
            Err(Error::Corruption(m)) => assert!(m.contains("master"), "bit {bit}: {m}"),
            Err(e) => panic!("bit {bit}: expected corruption, got {e}"),
            Ok(_) => silent.push(bit),
        }
    }
    assert!(silent.is_empty(), "{} of {} flips opened: {silent:?}", silent.len(), master.len() * 8);
    std::fs::write(&path, &master).unwrap();
    Database::open_dir(&dir, 64, Duration::from_secs(5)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

