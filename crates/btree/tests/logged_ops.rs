//! Every mutator of an existing record logs its change once. As a system
//! operation its record carries the change's exact physical inverse:
//! applied to the page after the change, it gives back the page before.
//! As a user update or a compensation it logs no inverse at all, and its
//! records are byte for byte the ones this log format has always written.

use std::sync::Arc;
use txview_btree::{LogCtx, OpLog, Tree};
use txview_common::codec::Writer;
use txview_common::{frame, IndexId, Key, Lsn, Result, Value};
use txview_storage::buffer::BufferPool;
use txview_storage::disk::MemDisk;
use txview_storage::fault::FaultClock;
use txview_storage::SlottedRef;
use txview_wal::log::PAYLOAD_HEADER_LEN;
use txview_wal::record::{LogRecord, RecordBody, UndoOp, ValueDelta};
use txview_wal::{FaultLogStore, LogManager};

const MUTATORS: usize = 5;

fn k(v: i64) -> Key {
    Key::from_values(&[Value::Int(v)])
}

/// A one-leaf tree's value: one byte, then a count and a sum region.
fn value() -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(b'G');
    [Value::Int(2), Value::Int(40)].iter().for_each(|v| v.encode(&mut w));
    w.into_bytes()
}

/// A log over a store the test can read, a pool, and trees `1..=trees`
/// holding keys 1..=5, inserted unlogged.
fn setup(trees: u32) -> (FaultLogStore, Arc<LogManager>, Arc<BufferPool>, Vec<Tree>) {
    let store = FaultLogStore::new(FaultClock::new());
    let log = Arc::new(LogManager::open(Box::new(store.clone())).unwrap());
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
    let l2 = Arc::clone(&log);
    pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
    let trees: Vec<Tree> = (1..=trees).map(|i| Tree::create(&pool, &log, IndexId(i)).unwrap()).collect();
    for tree in &trees {
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn: log.alloc_txn_id(), last_lsn: &mut last };
        for i in 1..=5 {
            tree.insert(&k(i), &value(), &mut ctx, &OpLog::None).unwrap();
        }
    }
    (store, log, pool, trees)
}

/// Mutator `op`, one each, on key `op + 1`.
fn mutate(tree: &Tree, op: usize, ctx: &mut LogCtx<'_>, how: &OpLog) -> Result<()> {
    let key = k(op as i64 + 1);
    match op {
        0 => tree.set_ghost(&key, true, ctx, how),
        1 => tree.update_value(&key, b"a longer value than before", ctx, how),
        2 => tree.patch_value(&key, 1, b"ZZ", ctx, how),
        3 => {
            let deltas = [(0, ValueDelta::Int(1)), (1, ValueDelta::Int(-5))];
            tree.add_to_value(&key, 18, &deltas, ctx, how, |_| Ok(()))
        }
        _ => tree.remove_record(&key, ctx, how),
    }
}

fn leaf_payload(pool: &Arc<BufferPool>, tree: &Tree) -> Vec<u8> {
    pool.fetch(tree.root()).unwrap().read().payload().to_vec()
}

/// What a leaf payload holds: its node header and its records in slot
/// order (a slot's bytes may sit anywhere in the page).
fn contents(payload: &[u8]) -> (Vec<u8>, Vec<Vec<u8>>) {
    let (header, slots) = payload.split_at(PAYLOAD_HEADER_LEN);
    let slots = SlottedRef::wrap(slots);
    (header.to_vec(), (0..slots.count()).map(|i| slots.get(i).to_vec()).collect())
}

#[test]
fn system_ops_log_the_exact_inverse_of_their_change() {
    for op in 0..MUTATORS {
        let (_, log, pool, trees) = setup(1);
        let tree = &trees[0];
        let before = leaf_payload(&pool, tree);
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn: log.alloc_txn_id(), last_lsn: &mut last };
        mutate(tree, op, &mut ctx, &OpLog::System).unwrap();
        log.flush_all().unwrap();
        let after = leaf_payload(&pool, tree);
        assert_ne!(before, after, "mutator {op} changed nothing");
        let rec = log.read_durable_from(0).unwrap().pop().unwrap();
        let RecordBody::Update { page, redo, undo: UndoOp::Page { page: undo_page, op: inverse } } = rec.body
        else {
            panic!("mutator {op} logged {:?}", rec.body);
        };
        assert_eq!((page, undo_page), (tree.root(), tree.root()));
        let mut redone = before.clone();
        redo.apply(&mut redone, PAYLOAD_HEADER_LEN).unwrap();
        assert_eq!(redone, after, "mutator {op}: redo rebuilds the change");
        let mut undone = after;
        inverse.apply(&mut undone, PAYLOAD_HEADER_LEN).unwrap();
        assert_eq!(contents(&undone), contents(&before), "mutator {op}: the inverse restores the leaf");
    }
}

/// The five mutators under `Update` on one tree, then under `Clr` on
/// another, log exactly the bytes they logged when every operation also
/// built the inverse that only system operations log (364 bytes, pinned by
/// their length and checksum).
#[test]
fn user_and_clr_ops_log_the_records_they_always_have() {
    let (store, log, _pool, trees) = setup(2);
    log.flush_all().unwrap();
    let start = log.end_lsn().0 as usize;
    let cases = [
        (&trees[0], OpLog::Update { undo: UndoOp::IndexInsert { index: IndexId(1), key: vec![7] } }),
        (&trees[1], OpLog::Clr { undo_next: Lsn(start as u64) }),
    ];
    for (tree, how) in &cases {
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn: log.alloc_txn_id(), last_lsn: &mut last };
        (0..MUTATORS).for_each(|op| mutate(tree, op, &mut ctx, how).unwrap());
    }
    log.flush_all().unwrap();
    let bytes = store.durable_bytes().split_off(start);
    let (records, used) = LogRecord::decode_run(&bytes, start as u64).unwrap();
    assert_eq!((records.len(), used), (2 * MUTATORS, bytes.len()));
    for rec in &records {
        match &rec.body {
            RecordBody::Update { undo, .. } => assert!(!matches!(undo, UndoOp::Page { .. })),
            RecordBody::Clr { .. } => {}
            other => panic!("unexpected record {other:?}"),
        }
    }
    assert_eq!((bytes.len(), frame::checksum(&bytes)), (364, 598_854_332_656_995_588));
}
