//! An LSN is the byte offset of its record: the properties that make that
//! so, and what it lets `LogManager::open` skip.

use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;
use txview_common::{Error, Lsn, PageId, Result, TxnId};
use txview_storage::buffer::BufferPool;
use txview_storage::disk::MemDisk;
use txview_storage::fault::FaultClock;
use txview_wal::log::LOG_HEADER;
use txview_wal::record::{LogRecord, RecordBody, RecordRun, RedoOp, UndoOp};
use txview_wal::{FaultLogStore, LogManager, LogStore, MemLogStore};

/// A page record: a transaction's first one opens its bracket.
fn begin_body() -> RecordBody {
    RecordBody::Update { page: PageId(1), redo: RedoOp::SlotRemove { idx: 0 }, undo: UndoOp::None }
}

fn pool() -> Arc<BufferPool> {
    BufferPool::new(Arc::new(MemDisk::new()), 4)
}

fn scan_from_of(log: &LogManager) -> u64 {
    match log.read_record_at(log.master().unwrap()).unwrap().unwrap().body {
        RecordBody::Checkpoint { scan_from, .. } => scan_from,
        other => panic!("master names {other:?}"),
    }
}

/// A handle on a store that outlives the manager over it, logging every
/// read as (offset, bytes returned).
struct Shared {
    inner: Arc<MemLogStore>,
    reads: Arc<Mutex<Vec<(u64, usize)>>>,
}

impl Shared {
    fn new(inner: &Arc<MemLogStore>, reads: &Arc<Mutex<Vec<(u64, usize)>>>) -> Box<Shared> {
        Box::new(Shared { inner: Arc::clone(inner), reads: Arc::clone(reads) })
    }
}

impl LogStore for Shared {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.inner.append(bytes)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn len_bytes(&self) -> Result<u64> {
        self.inner.len_bytes()
    }
    fn read_from(&self, offset: u64) -> Result<Vec<u8>> {
        let bytes = self.inner.read_from(offset)?;
        self.reads.lock().push((offset, bytes.len()));
        Ok(bytes)
    }
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let bytes = self.inner.read_at(offset, len)?;
        self.reads.lock().push((offset, bytes.len()));
        Ok(bytes)
    }
    fn set_master(&self, lsn: Lsn) -> Result<()> {
        self.inner.set_master(lsn)
    }
    fn get_master(&self) -> Result<Lsn> {
        self.inner.get_master()
    }
}

/// One finished transaction: a page record, then Commit.
fn committed(log: &LogManager, txn: TxnId) {
    let b = log.append(txn, Lsn::NULL, begin_body());
    log.append(txn, b, RecordBody::Commit);
}

/// Reopening reads the header and the log from the master checkpoint
/// on — not one byte of the records below it.
#[test]
fn open_reads_nothing_below_the_master_checkpoint() {
    let (store, reads) = (Arc::new(MemLogStore::new()), Arc::new(Mutex::new(Vec::new())));
    let master = {
        let log = LogManager::open(Shared::new(&store, &reads)).unwrap();
        for t in 1..=40 {
            committed(&log, TxnId(t));
        }
        let ck = log.checkpoint(&pool()).unwrap();
        log.append(TxnId(41), Lsn::NULL, begin_body());
        log.flush_all().unwrap();
        ck
    };
    assert!(master.0 > 1000, "the records below the checkpoint are not trivial");
    reads.lock().clear();
    let log = LogManager::open(Shared::new(&store, &reads)).unwrap();
    let reads = reads.lock().clone();
    assert!(!reads.is_empty());
    for (off, n) in reads {
        let header = off == 0 && n <= LOG_HEADER.len();
        assert!(header || off >= master.0, "open read {n} bytes at {off}, below {master:?}");
    }
    assert_eq!(log.alloc_txn_id(), TxnId(42));
}

/// Ids restart above every id in the durable log, including ids that
/// appear only below the master checkpoint's `scan_from`: there the
/// checkpoint's `next_txn` stands for them.
#[test]
fn reopened_txn_ids_are_above_every_durable_id() {
    let (store, reads) = (Arc::new(MemLogStore::new()), Arc::new(Mutex::new(Vec::new())));
    {
        let log = LogManager::open(Shared::new(&store, &reads)).unwrap();
        // Allocated first, logged only after the checkpoint.
        let late = log.alloc_txn_id();
        for _ in 0..3 {
            committed(&log, log.alloc_txn_id());
        }
        log.checkpoint(&pool()).unwrap();
        committed(&log, late);
        log.flush_all().unwrap();
    }
    let log = LogManager::open(Shared::new(&store, &reads)).unwrap();
    let scan_from = scan_from_of(&log);
    let recs = log.read_durable_from(0).unwrap();
    let below = recs.iter().filter(|r| r.lsn.0 < scan_from).map(|r| r.txn).max().unwrap();
    let above = recs.iter().filter(|r| r.lsn.0 >= scan_from).map(|r| r.txn).max().unwrap();
    assert!(below > above, "the largest id appears only below scan_from");
    for _ in 0..4 {
        let t = log.alloc_txn_id();
        assert!(recs.iter().all(|r| r.txn < t), "{t:?} reuses a durable id");
    }
}

/// A whole, checksummed record read at an offset other than the LSN it
/// stores is corruption, not a record (nor a torn tail).
#[test]
fn record_at_the_wrong_offset_is_corruption() {
    let rec = LogRecord { lsn: Lsn(64), prev_lsn: Lsn::NULL, txn: TxnId(1), body: RecordBody::Commit };
    let bytes = rec.encode_framed();
    assert!(LogRecord::decode_framed(&bytes, 64).unwrap().is_some());
    for at in [8, 63, 65] {
        let err = LogRecord::decode_framed(&bytes, at).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "at {at}: {err:?}");
    }
}

/// A record's bytes copied to another offset are refused: the LSN a
/// record stores names the offset it was written at.
#[test]
fn record_copied_to_another_offset_is_corruption() {
    let (store, reads) = (Arc::new(MemLogStore::new()), Arc::new(Mutex::new(Vec::new())));
    let log = LogManager::open(Shared::new(&store, &reads)).unwrap();
    let a = log.append(TxnId(1), Lsn::NULL, begin_body());
    log.flush_all().unwrap();
    let bytes = log.read_record_at(a).unwrap().unwrap().encode_framed();
    let copy = Lsn(log.durable_len().unwrap());
    let corrupt = |r: Result<()>| matches!(r, Err(Error::Corruption(_)));
    let append_at = |at: u64| RecordRun::decode(bytes.clone(), at).and_then(|run| log.append_raw_durable(&run));
    assert!(corrupt(append_at(copy.0)), "refused before it lands");
    assert!(corrupt(append_at(a.0)), "a run that does not start at the log's end is refused");
    assert_eq!(log.durable_len().unwrap(), copy.0);
    // Copied behind the manager's back, it is refused where it is read.
    store.append(&bytes).unwrap();
    assert!(corrupt(log.read_record_at(copy).map(drop)));
    assert!(corrupt(log.read_durable_from(0).map(drop)));
}

/// A store whose header carries another format version — version 1, the
/// retired layout with Begin records, or one never assigned — or no header
/// at all, is refused at open.
#[test]
fn foreign_log_header_is_refused_at_open() {
    let version = |v: u8| {
        let mut head = LOG_HEADER;
        head[4] = v;
        head.to_vec()
    };
    assert_eq!(LOG_HEADER[4], 2);
    let record = LogRecord { lsn: Lsn(8), prev_lsn: Lsn::NULL, txn: TxnId(1), body: begin_body() };
    for (head, want) in [(version(1), "version"), (version(3), "version"), (Vec::new(), "header")] {
        let store = FaultLogStore::new(FaultClock::new());
        store.install_snapshot([head, record.encode_framed()].concat(), Lsn::NULL, 0);
        match LogManager::open(Box::new(store)) {
            Err(Error::Corruption(m)) => assert!(m.contains(want), "{m}"),
            Err(e) => panic!("expected corruption, got {e}"),
            Ok(_) => panic!("a store without the {want} opened"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    /// An LSN is an offset. Through a random run of appends, flushes,
    /// checkpoints, crashes and reopens, `read_record_at(lsn)` returns
    /// every durable record after every step, and the first record
    /// appended once the tail is empty lands at the store's length.
    #[test]
    fn every_durable_record_is_found_at_its_lsn(
        ops in proptest::collection::vec(0u8..7, 1..60),
    ) {
        let (store, reads) = (Arc::new(MemLogStore::new()), Arc::new(Mutex::new(Vec::new())));
        let p = pool();
        let mut log = LogManager::open(Shared::new(&store, &reads)).unwrap();
        let mut open: Vec<(TxnId, Lsn)> = Vec::new();
        let mut tail_empty = true;
        for op in ops {
            match op {
                0 | 1 => {
                    let t = log.alloc_txn_id();
                    let b = log.append(t, Lsn::NULL, begin_body());
                    if tail_empty {
                        prop_assert_eq!(b, Lsn(store.len_bytes().unwrap()));
                    }
                    open.push((t, b));
                    tail_empty = false;
                }
                2 => {
                    if let Some((t, last)) = open.pop() {
                        let c = log.append(t, last, RecordBody::Commit);
                        log.flush_to(c).unwrap();
                        tail_empty = false;
                    }
                }
                3 => {
                    log.flush_all().unwrap();
                    tail_empty = true;
                }
                4 => {
                    log.checkpoint(&p).unwrap();
                    tail_empty = true;
                }
                5 => {
                    log.simulate_crash();
                    open.clear();
                    tail_empty = true;
                }
                _ => {
                    drop(log);
                    log = LogManager::open(Shared::new(&store, &reads)).unwrap();
                    open.clear();
                    tail_empty = true;
                }
            }
            let durable = log.read_durable_from(0).unwrap();
            // Back to back from the header on: each LSN is where the
            // previous record ends.
            let mut at = LOG_HEADER.len() as u64;
            for rec in &durable {
                prop_assert_eq!(rec.lsn.0, at);
                prop_assert_eq!(log.read_record_at(rec.lsn).unwrap().as_ref(), Some(rec));
                at += rec.encode_framed().len() as u64;
            }
            prop_assert!(log.flushed_lsn() <= log.last_allocated_lsn());
        }
    }
}

/// A flush cuts the tail at a record's LSN: `flush_to` of an LSN inside
/// the tail hands the store exactly the records up to it, records
/// appended later queue behind the rest, and `flush_all` hands over
/// everything left. The store ends up holding each record's own frame
/// once, in LSN order.
#[test]
fn flush_to_mid_tail_appends_exactly_that_prefix() {
    let store = FaultLogStore::new(FaultClock::new());
    let log = LogManager::open(Box::new(store.clone())).unwrap();
    let mut lsns = Vec::new();
    let mut append = |n: u64| {
        for _ in 0..n {
            let txn = TxnId(lsns.len() as u64 + 1);
            lsns.push(log.append(txn, Lsn::NULL, begin_body()));
        }
        lsns.clone()
    };
    let framed = |lsns: &[Lsn]| -> Vec<u8> {
        let recs = lsns.iter().zip(1..).map(|(&lsn, t)| {
            LogRecord { lsn, prev_lsn: Lsn::NULL, txn: TxnId(t), body: begin_body() }
        });
        LOG_HEADER.iter().copied().chain(recs.flat_map(|r| r.encode_framed())).collect()
    };
    let lsns = append(6);
    log.flush_to(lsns[1]).unwrap();
    assert_eq!(store.durable_bytes(), framed(&lsns[..2]));
    assert_eq!(store.durable_len(), lsns[2].0, "cut at the next record's LSN");
    let lsns = append(2);
    log.flush_to(lsns[4]).unwrap();
    assert_eq!(store.durable_bytes(), framed(&lsns[..5]));
    log.flush_all().unwrap();
    assert_eq!(store.durable_bytes(), framed(&lsns));
    assert_eq!(store.durable_len(), log.end_lsn().0);
    let batches = log.obs_snapshot().hist_value("wal.batch_records").unwrap().count();
    assert_eq!(batches, 3, "one store append per flush");
}
