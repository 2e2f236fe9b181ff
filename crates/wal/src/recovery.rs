//! ARIES recovery: read, analysis, redo, undo.
//!
//! * **Read** decodes the durable log from the master checkpoint's
//!   `scan_from` — at or before every bracket still open and every dirty
//!   page's recLSN (see `LogManager::checkpoint`) — and nothing before it.
//!   Without a master checkpoint it reads the whole log.
//! * **Analysis** rebuilds the active-transaction table (ATT) from those
//!   records — a transaction's first record enters it as active (there is
//!   no Begin record), Commit makes it a winner, End closes a rolled-back
//!   one — and the
//!   dirty-page table (DPT): the checkpoint's snapshot, merged at the
//!   checkpoint record, plus the page of every record from the
//!   checkpoint's begin LSN on.
//! * **Redo** repeats history from the earliest recLSN: every logged page
//!   operation is re-applied iff the page is in the DPT, the record's LSN is
//!   ≥ the page's recLSN, and `pageLSN < recordLSN`. Pages that never made
//!   it to disk are recreated from their `FormatPage` records.
//! * **Undo** rolls back losers in a single reverse-LSN sweep across all of
//!   them. `UndoOp::Page` descriptors (system transactions) are undone
//!   *physically* right here; logical descriptors (escrow deltas, index key
//!   operations) are delegated to the engine through [`UndoHandler`], which
//!   re-traverses the index and writes CLRs. CLRs encountered in the log
//!   jump straight to their `undo_next`, so rollback never regresses. Undo
//!   finds each record by binary search over the records read, which are
//!   LSN-sorted by construction: an LSN is the offset a record was read
//!   from. An undo chain that leaves them is refused, not followed.
//!
//! Note on CLR back-chains: crash-undo CLRs use a null `prev_lsn` (only
//! `undo_next` drives this algorithm), but *runtime* rollback CLRs are
//! chained through the transaction's `last_lsn` — forward records logged
//! after a savepoint rollback must back-chain through the CLRs so a later
//! crash-undo skips the already-compensated work.

use crate::log::{LogManager, PAYLOAD_HEADER_LEN};
use crate::record::{LogRecord, RecordBody, UndoOp};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use txview_common::{Error, Lsn, PageId, Result, TxnId};
use txview_storage::buffer::BufferPool;
use txview_storage::page::PageType;

/// Callback used by the undo pass (and by runtime rollback in `txview-txn`)
/// to execute a *logical* undo action. The implementation must perform the
/// inverse operation through the normal index code paths and log each page
/// change as a CLR carrying `undo_next`.
pub trait UndoHandler {
    /// Logically undo `op` on behalf of `txn`; every page change must be
    /// logged as a CLR carrying the given `undo_next`, appended through
    /// `chain` (the transaction's `last_lsn`). Threading `chain` is what
    /// keeps partial (savepoint) rollbacks crash-safe: forward records
    /// logged *after* the rollback then back-chain through the CLRs, whose
    /// `undo_next` makes crash-undo skip the already-compensated records.
    fn undo(&self, txn: TxnId, op: &UndoOp, undo_next: Lsn, chain: &mut Lsn) -> Result<()>;
}

/// What recovery did, for assertions and the E5 experiment.
#[derive(Debug, Default, Clone)]
pub struct RecoveryReport {
    /// LSN the log was read from (the master checkpoint's `scan_from`, or
    /// 0 — the first record — without one).
    pub scan_from: u64,
    /// Bytes the read phase took from the log store.
    pub bytes_read: u64,
    /// Records the read phase decoded.
    pub records_read: u64,
    /// Read phase (master lookup, log read and decode) wall-clock
    /// microseconds.
    pub read_us: u64,
    /// Records scanned by the analysis pass (all records read).
    pub analysis_records: u64,
    /// Records examined by the redo pass.
    pub redo_examined: u64,
    /// Redo operations actually applied (pageLSN test passed).
    pub redo_applied: u64,
    /// Redo operations skipped by the pageLSN test.
    pub redo_skipped: u64,
    /// Loser transactions rolled back.
    pub losers: u64,
    /// Committed transactions observed (winners).
    pub winners: u64,
    /// Logical undo actions delegated to the engine.
    pub logical_undos: u64,
    /// Physical (system-transaction) undo actions applied here.
    pub physical_undos: u64,
    /// Analysis phase wall-clock microseconds.
    pub analysis_us: u64,
    /// Redo phase wall-clock microseconds.
    pub redo_us: u64,
    /// Undo phase wall-clock microseconds.
    pub undo_us: u64,
}

/// Re-apply one logged page operation with the standard ARIES pageLSN
/// test: the redo is applied iff the target page's LSN is older than the
/// record's. Returns whether the redo was applied (false: skipped as
/// already reflected). Shared by the recovery redo pass and the follower
/// replay loop, which applies shipped frames through exactly this path so
/// replication inherits redo's idempotence.
pub fn redo_record(pool: &Arc<BufferPool>, rec: &LogRecord) -> Result<bool> {
    let (page_id, redo) = match &rec.body {
        RecordBody::Update { page, redo, .. } => (*page, redo),
        RecordBody::Clr { page, redo, .. } => (*page, redo),
        _ => return Ok(false),
    };
    let ty = redo.format_type()?.unwrap_or(PageType::Free);
    let page = pool.fetch_or_recreate(page_id, ty)?;
    let mut guard = page.write();
    if guard.lsn() < rec.lsn {
        redo.apply(guard.payload_mut(), PAYLOAD_HEADER_LEN)?;
        guard.set_lsn(rec.lsn);
        Ok(true)
    } else {
        Ok(false)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TxnStatus {
    Active,
    Committed,
    Ended,
}

/// One ATT entry. Undo treats user and system losers uniformly: system
/// transactions' records carry physical `UndoOp::Page` descriptors.
struct Att {
    status: TxnStatus,
    last_lsn: Lsn,
}

/// Run full crash recovery. Returns a report of what was done.
pub fn recover(
    log: &LogManager,
    pool: &Arc<BufferPool>,
    handler: &dyn UndoHandler,
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();

    // ---- Read -----------------------------------------------------------
    let t = Instant::now();
    let master_lsn = log.master()?;
    let (scan_from, begin) = if master_lsn.is_null() {
        (0, Lsn::NULL)
    } else {
        match log.read_record_at(master_lsn)? {
            Some(LogRecord { body: RecordBody::Checkpoint { scan_from, begin, .. }, .. }) => {
                (scan_from, begin)
            }
            _ => return Err(Error::corruption("master pointer does not name its checkpoint")),
        }
    };
    let (records, bytes_read) = log.scan_durable(scan_from)?;
    report.scan_from = scan_from;
    report.bytes_read = bytes_read;
    report.records_read = records.len() as u64;
    report.read_us = t.elapsed().as_micros() as u64;

    // ---- Analysis -------------------------------------------------------
    let t0 = Instant::now();
    let mut att: HashMap<TxnId, Att> = HashMap::new();
    let mut dpt: HashMap<PageId, Lsn> = HashMap::new();
    for rec in &records {
        report.analysis_records += 1;
        match &rec.body {
            RecordBody::Checkpoint { dirty, .. } => {
                if rec.lsn == master_lsn {
                    for &(page, rec_lsn) in dirty {
                        let l = dpt.entry(page).or_insert(rec_lsn);
                        *l = (*l).min(rec_lsn);
                    }
                }
                continue;
            }
            RecordBody::Update { page, .. } | RecordBody::Clr { page, .. } if rec.lsn >= begin => {
                dpt.entry(*page).or_insert(rec.lsn);
            }
            _ => {}
        }
        // A transaction's first record read enters it into the ATT as
        // active.
        let a = att.entry(rec.txn).or_insert(Att { status: TxnStatus::Active, last_lsn: rec.lsn });
        match rec.body {
            RecordBody::Commit => a.status = TxnStatus::Committed,
            RecordBody::End => a.status = TxnStatus::Ended,
            _ => {}
        }
        a.last_lsn = rec.lsn;
    }
    report.analysis_us = t0.elapsed().as_micros() as u64;

    // ---- Redo -----------------------------------------------------------
    let t1 = Instant::now();
    if let Some(&redo_from) = dpt.values().min() {
        let from = records.partition_point(|r| r.lsn < redo_from);
        for rec in &records[from..] {
            let page = match &rec.body {
                RecordBody::Update { page, .. } | RecordBody::Clr { page, .. } => page,
                _ => continue,
            };
            report.redo_examined += 1;
            let applied = match dpt.get(page) {
                Some(&rec_lsn) if rec.lsn >= rec_lsn => redo_record(pool, rec)?,
                _ => false,
            };
            if applied {
                report.redo_applied += 1;
            } else {
                report.redo_skipped += 1;
            }
        }
    }
    report.redo_us = t1.elapsed().as_micros() as u64;

    // ---- Undo -----------------------------------------------------------
    let t2 = Instant::now();
    let mut heap: BinaryHeap<(Lsn, TxnId)> = BinaryHeap::new();
    for (txn, a) in &att {
        match a.status {
            TxnStatus::Committed | TxnStatus::Ended => report.winners += 1,
            TxnStatus::Active => {
                report.losers += 1;
                heap.push((a.last_lsn, *txn));
            }
        }
    }
    while let Some((lsn, txn)) = heap.pop() {
        if lsn.is_null() {
            // The chain ran past the loser's first record: fully undone.
            log.append(txn, Lsn::NULL, RecordBody::End);
            continue;
        }
        let rec: &LogRecord = match records.binary_search_by_key(&lsn, |r| r.lsn) {
            Ok(i) => &records[i],
            Err(_) => {
                return Err(Error::corruption(format!("undo chain points at missing {lsn:?}")))
            }
        };
        match &rec.body {
            RecordBody::Update { undo, .. } => {
                match undo {
                    UndoOp::None => {}
                    UndoOp::Page { page: upage, op } => {
                        report.physical_undos += 1;
                        let clr_lsn = log.append(
                            txn,
                            Lsn::NULL,
                            RecordBody::Clr {
                                page: *upage,
                                redo: op.clone(),
                                undo_next: rec.prev_lsn,
                            },
                        );
                        let p = pool.fetch_or_recreate(*upage, PageType::Free)?;
                        let mut guard = p.write();
                        op.apply(guard.payload_mut(), PAYLOAD_HEADER_LEN)?;
                        guard.set_lsn(clr_lsn);
                    }
                    logical => {
                        report.logical_undos += 1;
                        // The CLR back-chain is irrelevant during crash
                        // undo (the walk is driven by undo_next), so a
                        // throwaway chain slot suffices.
                        let mut chain = Lsn::NULL;
                        handler.undo(txn, logical, rec.prev_lsn, &mut chain)?;
                    }
                }
                heap.push((rec.prev_lsn, txn));
            }
            RecordBody::Clr { undo_next, .. } => {
                heap.push((*undo_next, txn));
            }
            RecordBody::Abort | RecordBody::Commit | RecordBody::End => {
                heap.push((rec.prev_lsn, txn));
            }
            RecordBody::Checkpoint { .. } => {
                return Err(Error::corruption("checkpoint in a txn undo chain"));
            }
        }
    }
    log.flush_all()?;
    report.undo_us = t2.elapsed().as_micros() as u64;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RedoOp;
    use parking_lot::Mutex;
    use txview_common::IndexId;
    use txview_storage::disk::MemDisk;
    use txview_storage::slotted::Slotted;

    struct NoopHandler;
    impl UndoHandler for NoopHandler {
        fn undo(&self, _txn: TxnId, _op: &UndoOp, _undo_next: Lsn, _chain: &mut Lsn) -> Result<()> {
            Ok(())
        }
    }

    struct RecordingHandler(Mutex<Vec<(TxnId, UndoOp, Lsn)>>);
    impl UndoHandler for RecordingHandler {
        fn undo(&self, txn: TxnId, op: &UndoOp, undo_next: Lsn, _chain: &mut Lsn) -> Result<()> {
            self.0.lock().push((txn, op.clone(), undo_next));
            Ok(())
        }
    }

    fn setup() -> (Arc<LogManager>, Arc<BufferPool>) {
        let log = Arc::new(LogManager::in_memory());
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 16);
        let l2 = Arc::clone(&log);
        pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        (log, pool)
    }

    /// Log a page format + slot insert for `txn`, applying to the pool too.
    #[allow(clippy::too_many_arguments)]
    fn do_insert(
        log: &LogManager,
        pool: &Arc<BufferPool>,
        txn: TxnId,
        prev: Lsn,
        pid: PageId,
        idx: u16,
        bytes: &[u8],
        undo: UndoOp,
    ) -> Lsn {
        let redo = RedoOp::SlotInsert { idx, bytes: bytes.to_vec() };
        let lsn = log.append(txn, prev, RecordBody::Update { page: pid, redo: redo.clone(), undo });
        let page = pool.fetch(pid).unwrap();
        let mut g = page.write();
        redo.apply(g.payload_mut(), PAYLOAD_HEADER_LEN).unwrap();
        g.set_lsn(lsn);
        lsn
    }

    fn format_page(log: &LogManager, pool: &Arc<BufferPool>, txn: TxnId, prev: Lsn) -> (PageId, Lsn) {
        let (pid, page) = pool.new_page(PageType::BTreeLeaf).unwrap();
        let redo = RedoOp::FormatPage { ty: 2, header_len: PAYLOAD_HEADER_LEN as u16 };
        let lsn = log.append(
            txn,
            prev,
            RecordBody::Update { page: pid, redo: redo.clone(), undo: UndoOp::None },
        );
        let mut g = page.write();
        redo.apply(g.payload_mut(), PAYLOAD_HEADER_LEN).unwrap();
        g.set_lsn(lsn);
        (pid, lsn)
    }

    fn slot0(pool: &Arc<BufferPool>, pid: PageId) -> Vec<u8> {
        let page = pool.fetch(pid).unwrap();
        let mut g = page.write();
        let s = Slotted::wrap(&mut g.payload_mut()[PAYLOAD_HEADER_LEN..]);
        s.get(0).to_vec()
    }

    /// A `FormatPage` whose page-type byte is not in the table (9, never
    /// assigned; 5, the retired hash-index page) is corruption: redo must
    /// refuse it rather than format a Free page from it.
    #[test]
    fn redo_refuses_a_format_of_an_unknown_page_type() {
        let (log, pool) = setup();
        for ty in [9u8, 5] {
            let pid = PageId(40 + u32::from(ty));
            let redo = RedoOp::FormatPage { ty, header_len: PAYLOAD_HEADER_LEN as u16 };
            let lsn =
                log.append(TxnId(1), Lsn::NULL, RecordBody::Update { page: pid, redo, undo: UndoOp::None });
            log.flush_to(lsn).unwrap();
            let rec = log.read_record_at(lsn).unwrap().unwrap();
            match redo_record(&pool, &rec) {
                Err(Error::Corruption(m)) => assert!(m.contains(&format!("bad page type {ty}")), "{m}"),
                Err(e) => panic!("tag {ty}: expected corruption, got {e}"),
                Ok(applied) => panic!("tag {ty}: redo accepted the record (applied = {applied})"),
            }
            assert!(pool.fetch(pid).is_err(), "tag {ty}: no page was created");
        }
    }

    #[test]
    fn committed_work_is_redone_after_total_buffer_loss() {
        let (log, pool) = setup();
        let txn = TxnId(1);
        let (pid, l1) = format_page(&log, &pool, txn, Lsn::NULL);
        let l2 = do_insert(&log, &pool, txn, l1, pid, 0, b"hello", UndoOp::IndexInsert { index: IndexId(1), key: vec![1] });
        let c = log.append(txn, l2, RecordBody::Commit);
        log.flush_to(c).unwrap();

        // Crash: buffers lost entirely, log tail already flushed.
        let mut rng = txview_common::rng::Rng::new(1);
        pool.simulate_crash(0.0, &mut rng).unwrap();
        log.simulate_crash();

        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report.winners, 1);
        assert_eq!(report.losers, 0);
        assert!(report.redo_applied >= 2);
        assert_eq!(slot0(&pool, pid), b"hello");
    }

    #[test]
    fn loser_logical_ops_are_delegated_in_reverse_order() {
        let (log, pool) = setup();
        let txn = TxnId(1);
        let (pid, l1) = format_page(&log, &pool, txn, Lsn::NULL);
        let u1 = UndoOp::IndexInsert { index: IndexId(1), key: vec![1] };
        let u2 = UndoOp::IndexInsert { index: IndexId(1), key: vec![2] };
        let l2 = do_insert(&log, &pool, txn, l1, pid, 0, b"k1", u1.clone());
        let l3 = do_insert(&log, &pool, txn, l2, pid, 1, b"k2", u2.clone());
        log.flush_to(l3).unwrap();
        // No commit: loser.
        let handler = RecordingHandler(Mutex::new(Vec::new()));
        let report = recover(&log, &pool, &handler).unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(report.logical_undos, 2);
        let calls = handler.0.into_inner();
        assert_eq!(calls.len(), 2);
        // Reverse order: the k2 insert is undone first.
        assert_eq!(calls[0].1, u2);
        assert_eq!(calls[1].1, u1);
        // undo_next chains point backwards correctly.
        assert_eq!(calls[0].2, l2);
        assert_eq!(calls[1].2, l1);
    }

    #[test]
    fn physical_undo_restores_system_txn_pages() {
        let (log, pool) = setup();
        let txn = TxnId(9);
        let (pid, l1) = format_page(&log, &pool, txn, Lsn::NULL);
        // Insert with a physical inverse (system transactions do this).
        let inverse = RedoOp::SlotRemove { idx: 0 };
        let l2 = do_insert(
            &log,
            &pool,
            txn,
            l1,
            pid,
            0,
            b"smo",
            UndoOp::Page { page: pid, op: inverse },
        );
        log.flush_to(l2).unwrap();
        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report.physical_undos, 1);
        // The slot is gone again.
        let page = pool.fetch(pid).unwrap();
        let mut g = page.write();
        let s = Slotted::wrap(&mut g.payload_mut()[PAYLOAD_HEADER_LEN..]);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn redo_is_idempotent_under_double_recovery() {
        let (log, pool) = setup();
        let txn = TxnId(1);
        let (pid, l1) = format_page(&log, &pool, txn, Lsn::NULL);
        let l2 = do_insert(&log, &pool, txn, l1, pid, 0, b"once", UndoOp::None);
        let c = log.append(txn, l2, RecordBody::Commit);
        log.flush_to(c).unwrap();
        let mut rng = txview_common::rng::Rng::new(1);
        pool.simulate_crash(0.5, &mut rng).unwrap();
        recover(&log, &pool, &NoopHandler).unwrap();
        // Second recovery over the already-recovered state must change
        // nothing (all redo skipped by the pageLSN test) — except that the
        // first recovery may have appended End records.
        let report2 = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report2.redo_applied, 0);
        assert_eq!(slot0(&pool, pid), b"once");
    }

    #[test]
    fn clr_skips_already_undone_work() {
        let (log, pool) = setup();
        let txn = TxnId(1);
        let (pid, l1) = format_page(&log, &pool, txn, Lsn::NULL);
        let u1 = UndoOp::IndexInsert { index: IndexId(1), key: vec![1] };
        let l2 = do_insert(&log, &pool, txn, l1, pid, 0, b"k1", u1);
        let u2 = UndoOp::IndexInsert { index: IndexId(1), key: vec![2] };
        let l3 = do_insert(&log, &pool, txn, l2, pid, 1, b"k2", u2.clone());
        // Pretend runtime rollback already undid l3: a CLR pointing at l2.
        let clr = log.append(
            txn,
            l3,
            RecordBody::Clr {
                page: pid,
                redo: RedoOp::SlotRemove { idx: 1 },
                undo_next: l2,
            },
        );
        log.flush_to(clr).unwrap();
        let handler = RecordingHandler(Mutex::new(Vec::new()));
        let report = recover(&log, &pool, &handler).unwrap();
        // Only the k1 insert still needs logical undo.
        assert_eq!(report.logical_undos, 1);
        let calls = handler.0.into_inner();
        assert_eq!(calls.len(), 1);
        assert!(matches!(&calls[0].1, UndoOp::IndexInsert { key, .. } if key == &vec![1]));
    }

    #[test]
    fn checkpoint_bounds_analysis() {
        let (log, pool) = setup();
        // Txn 1 commits before the checkpoint.
        let t1 = TxnId(1);
        let (pid, l1) = format_page(&log, &pool, t1, Lsn::NULL);
        let l2 = do_insert(&log, &pool, t1, l1, pid, 0, b"pre", UndoOp::None);
        log.append(t1, l2, RecordBody::Commit);
        pool.flush_all().unwrap();
        log.checkpoint(&pool).unwrap();
        // Txn 2 after the checkpoint, unfinished.
        let t2 = TxnId(2);
        let b2 = Lsn::NULL;
        let l3 = do_insert(&log, &pool, t2, b2, pid, 1, b"post", UndoOp::Page { page: pid, op: RedoOp::SlotRemove { idx: 1 } });
        log.flush_to(l3).unwrap();

        let total_records = log.read_durable_from(0).unwrap().len() as u64;
        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert!(report.analysis_records < total_records, "analysis starts at checkpoint");
        assert_eq!(report.losers, 1);
        // Committed pre-checkpoint data survives; loser insert rolled back.
        assert_eq!(slot0(&pool, pid), b"pre");
        let page = pool.fetch(pid).unwrap();
        let mut g = page.write();
        let s = Slotted::wrap(&mut g.payload_mut()[PAYLOAD_HEADER_LEN..]);
        assert_eq!(s.count(), 1);
    }

    fn slot_count(pool: &Arc<BufferPool>, pid: PageId) -> usize {
        let page = pool.fetch(pid).unwrap();
        let mut g = page.write();
        Slotted::wrap(&mut g.payload_mut()[PAYLOAD_HEADER_LEN..]).count()
    }

    /// A committed page to work on, written back so the crash keeps it.
    fn committed_page(log: &LogManager, pool: &Arc<BufferPool>) -> PageId {
        let t = log.alloc_txn_id();
        let (pid, l) = format_page(log, pool, t, Lsn::NULL);
        log.append(t, l, RecordBody::Commit);
        pool.flush_all().unwrap();
        pid
    }

    fn crash(log: &LogManager, pool: &Arc<BufferPool>) {
        let mut rng = txview_common::rng::Rng::new(1);
        pool.simulate_crash(0.0, &mut rng).unwrap();
        log.simulate_crash();
    }

    /// A system bracket (a page split, say) opens before a checkpoint and
    /// never commits. Both its page operations — the one before the
    /// checkpoint and the one after — must be undone, not only redone.
    #[test]
    fn system_bracket_open_across_checkpoint_is_undone() {
        let (log, pool) = setup();
        let pid = committed_page(&log, &pool);
        let sys = log.alloc_txn_id();
        let b = Lsn::NULL;
        let undo0 = UndoOp::Page { page: pid, op: RedoOp::SlotRemove { idx: 0 } };
        let l1 = do_insert(&log, &pool, sys, b, pid, 0, b"smo-1", undo0);
        log.checkpoint(&pool).unwrap();
        let undo1 = UndoOp::Page { page: pid, op: RedoOp::SlotRemove { idx: 1 } };
        let l2 = do_insert(&log, &pool, sys, l1, pid, 1, b"smo-2", undo1);
        log.flush_to(l2).unwrap();
        crash(&log, &pool);

        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(report.physical_undos, 2, "both page operations undone");
        assert_eq!(slot_count(&pool, pid), 0);
    }

    /// A loser that began before the checkpoint and is still open when it
    /// is taken holds the scan back to its first record.
    #[test]
    fn loser_open_at_checkpoint_starts_the_scan_at_its_first_record() {
        let (log, pool) = setup();
        let pid = committed_page(&log, &pool);
        let loser = TxnId(50);
        let u1 = UndoOp::IndexInsert { index: IndexId(1), key: vec![1] };
        let l1 = do_insert(&log, &pool, loser, Lsn::NULL, pid, 0, b"k1", u1);
        // Stolen to disk: no dirty page holds the scan back, only the loser.
        pool.flush_all().unwrap();
        let begin_at = l1.0;
        log.checkpoint(&pool).unwrap();
        let u2 = UndoOp::IndexInsert { index: IndexId(1), key: vec![2] };
        let l2 = do_insert(&log, &pool, loser, l1, pid, 1, b"k2", u2);
        log.flush_to(l2).unwrap();
        crash(&log, &pool);
        let durable = log.durable_len().unwrap();

        let handler = RecordingHandler(Mutex::new(Vec::new()));
        let report = recover(&log, &pool, &handler).unwrap();
        assert!(begin_at > 0, "the committed set-up precedes the loser");
        assert_eq!(report.scan_from, begin_at);
        assert_eq!(report.bytes_read, durable - begin_at);
        assert_eq!(report.losers, 1);
        assert_eq!(report.logical_undos, 2, "pre- and post-checkpoint work undone");
    }

    /// A transaction's first record appended (not yet flushed) just before
    /// the checkpoint, its next one after it, then a crash: both are
    /// undone.
    #[test]
    fn first_record_just_before_checkpoint_then_updates_are_undone() {
        let (log, pool) = setup();
        let pid = committed_page(&log, &pool);
        let loser = TxnId(60);
        let undo0 = UndoOp::Page { page: pid, op: RedoOp::SlotRemove { idx: 0 } };
        let l0 = do_insert(&log, &pool, loser, Lsn::NULL, pid, 0, b"early", undo0);
        log.checkpoint(&pool).unwrap();
        let l1 = do_insert(&log, &pool, loser, l0, pid, 1, b"late", UndoOp::Page {
            page: pid,
            op: RedoOp::SlotRemove { idx: 1 },
        });
        log.flush_to(l1).unwrap();
        crash(&log, &pool);

        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report.losers, 1);
        assert_eq!(report.physical_undos, 2);
        assert_eq!(slot_count(&pool, pid), 0);
    }

    /// A page allocated while a checkpoint is under way (here: from inside
    /// the checkpoint's own write-back) has a null recLSN, so the snapshot
    /// leaves it out. Its records precede the checkpoint record: analysis
    /// must add it from the checkpoint's begin LSN on, not from the
    /// checkpoint record on.
    #[test]
    fn page_allocated_during_checkpoint_is_redone() {
        let (log, pool) = setup();
        // An unanchored frame makes the write-back (and its probe) run.
        let (_, fresh) = pool.new_page(PageType::BTreeLeaf).unwrap();
        drop(fresh);
        let mid: Arc<Mutex<Option<PageId>>> = Arc::new(Mutex::new(None));
        let (l2, p2, m2) = (Arc::clone(&log), Arc::clone(&pool), Arc::clone(&mid));
        pool.set_crash_probe(Arc::new(move |_| {
            if m2.lock().is_some() {
                return;
            }
            let t = l2.alloc_txn_id();
            let (pid, l) = format_page(&l2, &p2, t, Lsn::NULL);
            *m2.lock() = Some(pid);
            let l = do_insert(&l2, &p2, t, l, pid, 0, b"mid", UndoOp::None);
            l2.append(t, l, RecordBody::Commit);
        }));
        let ck = log.checkpoint(&pool).unwrap();
        let pid = mid.lock().expect("probe ran inside the checkpoint");
        assert!(pool.dirty_pages().contains(&(pid, Lsn::NULL)));
        log.flush_to(ck).unwrap();
        crash(&log, &pool);

        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report.losers, 0);
        assert_eq!(slot0(&pool, pid), b"mid");
    }

    /// A master checkpoint that does not cover an open bracket (hand-built
    /// here: `scan_from` at the checkpoint itself) leaves the bracket's
    /// first record unread. Its later record still enters it into the ATT, so the
    /// undo chain runs into the unread part and restart refuses the log —
    /// instead of redoing the operation and never undoing it.
    #[test]
    fn uncovered_open_bracket_is_refused_not_half_undone() {
        let (log, pool) = setup();
        let pid = committed_page(&log, &pool);
        let sys = log.alloc_txn_id();
        let b = Lsn::NULL;
        let undo0 = UndoOp::Page { page: pid, op: RedoOp::SlotRemove { idx: 0 } };
        let l1 = do_insert(&log, &pool, sys, b, pid, 0, b"smo-1", undo0);
        pool.flush_all().unwrap(); // stolen, so the empty DPT is truthful
        let at = log.durable_len().unwrap();
        let begin = Lsn(log.last_allocated_lsn().0 + 1);
        let body = RecordBody::Checkpoint { scan_from: at, begin, next_txn: 0, dirty: vec![] };
        let ck = log.append(TxnId::NONE, Lsn::NULL, body);
        log.flush_to(ck).unwrap();
        log.set_master_raw(ck).unwrap();
        let undo1 = UndoOp::Page { page: pid, op: RedoOp::SlotRemove { idx: 1 } };
        let l2 = do_insert(&log, &pool, sys, l1, pid, 1, b"smo-2", undo1);
        log.flush_to(l2).unwrap();
        crash(&log, &pool);

        let err = recover(&log, &pool, &NoopHandler).unwrap_err();
        assert!(matches!(err, Error::Corruption(_)), "got {err:?}");
    }

    /// Restart, then a checkpoint before any page is written back: pages
    /// redo dirtied carry recLSNs from before the restart, older than any
    /// batch this log manager appended. They must resolve to where the
    /// restart's own scan began, or the next restart skips their redo.
    #[test]
    fn checkpoint_after_restart_covers_pages_redo_dirtied() {
        use crate::fault::FaultLogStore;
        use txview_storage::fault::FaultClock;
        let store = FaultLogStore::new(FaultClock::new());
        let disk = Arc::new(MemDisk::new());
        let boot = || {
            let log = Arc::new(LogManager::open(Box::new(store.clone())).unwrap());
            let pool = BufferPool::new(Arc::clone(&disk) as Arc<dyn txview_storage::disk::DiskManager>, 16);
            let l2 = Arc::clone(&log);
            pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
            (log, pool)
        };
        let pid = {
            let (log, pool) = boot();
            let t = log.alloc_txn_id();
            let (pid, l) = format_page(&log, &pool, t, Lsn::NULL);
            let l = do_insert(&log, &pool, t, l, pid, 0, b"a", UndoOp::None);
            log.append(t, l, RecordBody::Commit);
            pool.flush_all().unwrap(); // the disk holds [a]
            let t = log.alloc_txn_id();
            let b = Lsn::NULL;
            let l = do_insert(&log, &pool, t, b, pid, 1, b"b", UndoOp::None);
            log.append(t, l, RecordBody::Commit);
            log.checkpoint(&pool).unwrap();
            pid // crash: [a, b] never reaches the disk
        };
        {
            let (log, pool) = boot();
            recover(&log, &pool, &NoopHandler).unwrap();
            assert_eq!(slot_count(&pool, pid), 2, "redo restored b in memory");
            log.checkpoint(&pool).unwrap(); // crash again, still unwritten
        }
        let (log, pool) = boot();
        recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(slot_count(&pool, pid), 2);
    }

    /// Without a master checkpoint, restart reads the whole log.
    #[test]
    fn master_less_log_scans_from_zero() {
        let (log, pool) = setup();
        committed_page(&log, &pool);
        log.flush_all().unwrap();
        let total = log.read_durable_from(0).unwrap().len() as u64;
        crash(&log, &pool);
        let durable = log.durable_len().unwrap();
        let report = recover(&log, &pool, &NoopHandler).unwrap();
        assert_eq!(report.scan_from, 0);
        assert_eq!(report.records_read, total);
        assert_eq!(report.bytes_read, durable - crate::log::LOG_HEADER_LEN);
    }

    /// A master pointer naming a retired-layout checkpoint (tag 7) is
    /// refused as corruption — already when the log is opened.
    #[test]
    fn retired_checkpoint_layout_is_refused() {
        use crate::log::{LogStore, MemLogStore};
        use txview_common::codec::Writer;
        let mut w = Writer::with_capacity(32);
        w.lsn(Lsn(8)).varint(0).varint(0).u8(7).u32(0).u32(0);
        let store = MemLogStore::new();
        store.append(&txview_common::frame::encode_var(&w.into_bytes())).unwrap();
        store.set_master(Lsn(8)).unwrap();
        match LogManager::open(Box::new(store)) {
            Err(Error::Corruption(m)) => assert!(m.contains("tag 7"), "{m}"),
            Err(e) => panic!("expected corruption, got {e}"),
            Ok(_) => panic!("a log whose master names a tag-7 record opened"),
        }
    }
}
