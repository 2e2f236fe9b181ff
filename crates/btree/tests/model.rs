//! Property-based model checking of the B+ tree against `BTreeMap`,
//! with structural validation after every mutation batch.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use txview_btree::{logctx::LogCtx, tree::Tree, OpLog};
use txview_common::{IndexId, Key, Lsn, Value};
use txview_storage::buffer::BufferPool;
use txview_storage::disk::MemDisk;
use txview_wal::record::UndoOp;
use txview_wal::LogManager;

#[derive(Clone, Debug)]
enum TreeOp {
    Insert { k: i64, len: usize },
    Ghost { k: i64 },
    Revive { k: i64, len: usize },
    Update { k: i64, len: usize },
    Remove { k: i64 },
}

fn arb_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        5 => (0i64..200, 1usize..300).prop_map(|(k, len)| TreeOp::Insert { k, len }),
        2 => (0i64..200).prop_map(|k| TreeOp::Ghost { k }),
        1 => (0i64..200, 1usize..300).prop_map(|(k, len)| TreeOp::Revive { k, len }),
        2 => (0i64..200, 1usize..300).prop_map(|(k, len)| TreeOp::Update { k, len }),
        1 => (0i64..200).prop_map(|k| TreeOp::Remove { k }),
    ]
}

fn value_of(k: i64, len: usize) -> Vec<u8> {
    let mut v = vec![(k % 251) as u8; len];
    if let Some(first) = v.first_mut() {
        *first = (len % 251) as u8;
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Random interleavings of inserts/ghosts/revives/updates/removes
    /// behave exactly like a BTreeMap<i64, (ghost, value)>, and the tree
    /// stays structurally valid throughout.
    #[test]
    fn tree_matches_btreemap(ops in proptest::collection::vec(arb_op(), 1..250)) {
        let log = Arc::new(LogManager::in_memory());
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 128);
        let l2 = Arc::clone(&log);
        pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        let tree = Tree::create(&pool, &log, IndexId(1)).unwrap();
        let mut model: BTreeMap<i64, (bool, Vec<u8>)> = BTreeMap::new();

        let txn = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let how = OpLog::Update { undo: UndoOp::None };

        for op in &ops {
            let mut ctx = LogCtx { log: &log, txn, last_lsn: &mut last };
            match op {
                TreeOp::Insert { k, len } => {
                    let key = Key::from_values(&[Value::Int(*k)]);
                    let v = value_of(*k, *len);
                    let res = tree.insert(&key, &v, &mut ctx, &how);
                    match model.get(k) {
                        Some((false, _)) => prop_assert!(res.is_err(), "dup insert must fail"),
                        _ => {
                            res.unwrap();
                            model.insert(*k, (false, v));
                        }
                    }
                }
                TreeOp::Ghost { k } => {
                    let key = Key::from_values(&[Value::Int(*k)]);
                    let res = tree.set_ghost(&key, true, &mut ctx, &how);
                    if let Some((_, v)) = model.get(k).cloned() {
                        res.unwrap();
                        prop_assert_eq!(tree.get(&key).unwrap(), Some((true, v.clone())));
                        model.insert(*k, (true, v));
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                TreeOp::Revive { k, len } => {
                    // Insert on an existing ghost replaces its value.
                    if let Some((true, _)) = model.get(k) {
                        let key = Key::from_values(&[Value::Int(*k)]);
                        let v = value_of(*k, *len);
                        tree.insert(&key, &v, &mut ctx, &how).unwrap();
                        model.insert(*k, (false, v));
                    }
                }
                TreeOp::Update { k, len } => {
                    let key = Key::from_values(&[Value::Int(*k)]);
                    let v = value_of(*k, *len);
                    let res = tree.update_value(&key, &v, &mut ctx, &how);
                    if let Some((g, _)) = model.get(k).cloned() {
                        res.unwrap();
                        model.insert(*k, (g, v));
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                TreeOp::Remove { k } => {
                    let key = Key::from_values(&[Value::Int(*k)]);
                    let res = tree.remove_record(&key, &mut ctx, &how);
                    if model.remove(k).is_some() {
                        res.unwrap();
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
            }
        }

        // Structural invariants hold and the record count matches.
        let physical = tree.validate().unwrap();
        prop_assert_eq!(physical, model.len());

        // Full scans agree (live-only and with ghosts).
        let (all, next) = tree.scan(None, None, true).unwrap();
        prop_assert!(next.is_none());
        prop_assert_eq!(all.len(), model.len());
        for (item, (k, (ghost, v))) in all.iter().zip(model.iter()) {
            let expected_key = Key::from_values(&[Value::Int(*k)]);
            prop_assert_eq!(&item.key, expected_key.as_bytes());
            prop_assert_eq!(item.ghost, *ghost);
            prop_assert_eq!(&item.value, v);
        }
        let (live, _) = tree.scan(None, None, false).unwrap();
        prop_assert_eq!(live.len(), model.values().filter(|(g, _)| !g).count());

        // Point lookups agree on a sample.
        for k in (0..200).step_by(17) {
            let key = Key::from_values(&[Value::Int(k)]);
            let got = tree.get(&key).unwrap();
            match model.get(&k) {
                Some((g, v)) => prop_assert_eq!(got, Some((*g, v.clone()))),
                None => prop_assert_eq!(got, None),
            }
        }
    }
}

// ---- reopen after crash --------------------------------------------------

/// Page splits run as system transactions that commit independently of the
/// user transaction whose insert triggered them. After a crash that loses
/// an in-flight user transaction, recovery must keep the committed split
/// structure, replay the committed inserts, logically undo the loser's,
/// and leave a tree that still validates.
#[test]
fn committed_splits_survive_crash_that_loses_the_user_txn() {
    use txview_common::{Result as TxResult, TxnId};
    use txview_storage::disk::DiskManager;
    use txview_storage::fault::{FaultClock, FaultDisk, FaultPoint, FaultSchedule};
    use txview_wal::{recover, FaultLogStore, RecordBody, UndoHandler};

    const INDEX: IndexId = IndexId(9);

    /// Minimal logical-undo executor: the only user-level operation this
    /// test logs is an insert, whose inverse is ghosting the key.
    struct GhostInserts<'a> {
        tree: &'a Tree,
        log: &'a LogManager,
    }
    impl UndoHandler for GhostInserts<'_> {
        fn undo(&self, txn: TxnId, op: &UndoOp, undo_next: Lsn, chain: &mut Lsn) -> TxResult<()> {
            match op {
                UndoOp::IndexInsert { key, .. } => {
                    let mut ctx = LogCtx { log: self.log, txn, last_lsn: chain };
                    let k = Key::from_bytes(key.clone());
                    self.tree.set_ghost(&k, true, &mut ctx, &OpLog::Clr { undo_next })?;
                    Ok(())
                }
                other => panic!("unexpected logical undo {other:?}"),
            }
        }
    }

    fn insert_range(tree: &Tree, log: &LogManager, txn: txview_common::TxnId, last: &mut Lsn, range: std::ops::Range<i64>) {
        for k in range {
            let key = Key::from_values(&[Value::Int(k)]);
            let undo = UndoOp::IndexInsert { index: INDEX, key: key.as_bytes().to_vec() };
            let mut ctx = LogCtx { log, txn, last_lsn: last };
            tree.insert(&key, &value_of(k, 300), &mut ctx, &OpLog::Update { undo }).unwrap();
        }
    }

    let clock = FaultClock::new();
    let disk = FaultDisk::new(Arc::clone(&clock));
    let store = FaultLogStore::new(Arc::clone(&clock));

    let root = {
        let pool = BufferPool::new(Arc::new(disk.clone()), 128);
        let log = Arc::new(LogManager::open(Box::new(store.clone())).unwrap());
        let l2 = Arc::clone(&log);
        pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        let tree = Tree::create(&pool, &log, INDEX).unwrap();

        // Committed transaction: 300-byte values force leaf splits.
        let txn_a = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        insert_range(&tree, &log, txn_a, &mut last, 0..80);
        log.append(txn_a, last, RecordBody::Commit);
        log.flush_all().unwrap();
        assert!(disk.num_pages() > 4, "workload too small to split");

        // Loser transaction: more splits, records made durable mid-flight
        // (and some dirty pages stolen to disk), but never committed.
        let txn_b = log.alloc_txn_id();
        let mut last = Lsn::NULL;
        insert_range(&tree, &log, txn_b, &mut last, 1000..1040);
        log.flush_all().unwrap();
        pool.flush_all().unwrap();

        // Hard crash: everything from this event on is gone.
        clock.arm(&FaultSchedule::crash_at(0));
        clock.tick(FaultPoint::Probe("model.crash"));
        tree.root()
    };
    disk.crash_restore();
    store.crash_restore();
    clock.disarm();

    // Reboot onto the durable image and recover.
    let pool = BufferPool::new(Arc::new(disk.clone()), 128);
    let log = Arc::new(LogManager::open(Box::new(store.clone())).unwrap());
    let l2 = Arc::clone(&log);
    pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
    let tree = Tree::open(&pool, INDEX, root);

    let handler = GhostInserts { tree: &tree, log: &log };
    let report = recover(&log, &pool, &handler).unwrap();
    assert_eq!(report.losers, 1, "exactly the uncommitted user txn loses");
    assert!(report.winners >= 1);
    assert_eq!(report.logical_undos, 40, "every loser insert undone");

    // Committed keys survive with their exact values; the split structure
    // validates; the loser's keys are ghosts awaiting cleanup.
    let physical = tree.validate().unwrap();
    assert_eq!(physical, 80 + 40);
    for k in 0..80 {
        let key = Key::from_values(&[Value::Int(k)]);
        assert_eq!(tree.get(&key).unwrap(), Some((false, value_of(k, 300))));
    }
    for k in 1000..1040 {
        let key = Key::from_values(&[Value::Int(k)]);
        match tree.get(&key).unwrap() {
            Some((true, _)) => {}
            other => panic!("loser key {k} not ghosted: {other:?}"),
        }
    }

    // Redo is idempotent: a second recovery pass finds no losers and
    // applies nothing new.
    let again = recover(&log, &pool, &handler).unwrap();
    assert_eq!(again.losers, 0);
    assert_eq!(again.redo_applied, 0);
    assert_eq!(again.logical_undos, 0);
}
