//! The transaction manager: begin / commit / rollback / savepoint /
//! system transactions.

use crate::pipeline::CommitPipeline;
use crate::txn::{IsolationLevel, Transaction, TxnState};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txview_common::obs::{Counter, Histogram, ObsClock, Snapshot};
use txview_common::{Error, Lsn, Result, TxnId};
use txview_lock::LockManager;
use txview_wal::record::RecordBody;
use txview_wal::recovery::UndoHandler;
use txview_wal::LogManager;

/// Coordinates transactions over the log and lock managers.
pub struct TxnManager {
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    /// Number of active user transactions (the `txn.active` gauge). What
    /// a checkpoint needs of them, the log manager tracks itself.
    active: AtomicU64,
    /// Optional group-commit pipeline. When installed, forced commits go
    /// through leader-based batching instead of the strict per-commit
    /// `flush_strict`.
    pipeline: RwLock<Option<Arc<CommitPipeline>>>,
    obs: TxnObs,
}

/// Per-phase commit-path timing: where a transaction's life goes, split the
/// way the paper discusses it — lock acquisition, view maintenance, the
/// commit-record log force, and the whole commit protocol.
#[derive(Default)]
pub struct TxnObs {
    /// Time source; switched to a logical tick counter in deterministic runs.
    pub clock: ObsClock,
    /// Transactions committed / rolled back through this manager.
    pub commits: Counter,
    /// Rollback counterpart of `commits`.
    pub rollbacks: Counter,
    /// Per-transaction accumulated lock-acquisition time (µs or ticks).
    pub acquire_us: Histogram,
    /// Per-transaction accumulated view-maintenance time.
    pub maintain_us: Histogram,
    /// Commit-record group-flush latency (the log-force wait).
    pub log_force_us: Histogram,
    /// Whole commit protocol: append → force → stamp → release.
    pub commit_us: Histogram,
}

impl TxnManager {
    /// Create a manager over shared log and lock managers.
    pub fn new(log: Arc<LogManager>, locks: Arc<LockManager>) -> TxnManager {
        TxnManager {
            log,
            locks,
            active: AtomicU64::new(0),
            pipeline: RwLock::new(None),
            obs: TxnObs::default(),
        }
    }

    /// Install the leader-based group-commit pipeline. Re-installation
    /// replaces the pipeline (tests only — production installs once at
    /// startup).
    pub fn enable_pipeline(&self) {
        *self.pipeline.write() = Some(Arc::new(CommitPipeline::new(Arc::clone(&self.log))));
    }

    /// The installed group-commit pipeline, if any.
    pub fn pipeline(&self) -> Option<Arc<CommitPipeline>> {
        self.pipeline.read().clone()
    }

    /// Commit-path observability handles (clock switching, direct reads).
    pub fn obs(&self) -> &TxnObs {
        &self.obs
    }

    /// Point-in-time metrics snapshot of the txn layer, `txn.*`-namespaced.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.counter("txn.commits", self.obs.commits.get());
        s.counter("txn.rollbacks", self.obs.rollbacks.get());
        s.gauge("txn.active", self.active_count() as i64);
        s.hist("txn.phase.acquire_us", self.obs.acquire_us.snapshot());
        s.hist("txn.phase.maintain_us", self.obs.maintain_us.snapshot());
        s.hist("txn.phase.log_force_us", self.obs.log_force_us.snapshot());
        s.hist("txn.phase.commit_us", self.obs.commit_us.snapshot());
        if let Some(p) = self.pipeline() {
            s.merge(p.obs_snapshot());
        }
        s.sort();
        s
    }

    /// The log manager.
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Begin a user transaction at the given isolation level. Nothing is
    /// logged: the transaction's first page record opens its bracket.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let id = self.log.alloc_txn_id();
        let snapshot_lsn = self.log.last_allocated_lsn();
        self.active.fetch_add(1, Ordering::Relaxed);
        Transaction {
            id,
            isolation,
            last_lsn: Lsn::NULL,
            snapshot_lsn,
            state: TxnState::Active,
            undo: Vec::new(),
            phase_acquire_us: 0,
            phase_maintain_us: 0,
            views: Default::default(),
        }
    }

    /// Commit: force the commit record, release all locks. Returns the
    /// commit LSN (the version stamp for snapshot readers).
    pub fn commit(&self, txn: &mut Transaction) -> Result<Lsn> {
        self.commit_with_hooks(txn, |_| Ok(true), |_, _| Ok(()))
    }

    /// The commit seam the engine uses: `pre_append` runs *inside* the
    /// transaction, after the commit decision but **before the commit record is
    /// appended** — the engine flushes its cascade queue there, so derived
    /// views are refreshed by ordinary logged maintenance that the commit
    /// record then covers. It returns the log-force flag, computed *after*
    /// its own work so a cascade flush upgrades a would-be no-force commit.
    /// On error the transaction is left Active for the caller to roll back
    /// — nothing has been appended yet. Then: append → wait/flush →
    /// `pre_release` (given the transaction and its commit LSN) → release.
    /// The Commit record closes the transaction's bracket; no End follows.
    ///
    /// A transaction that logged nothing (a reader, or a writer whose
    /// changes were all no-ops) appends nothing and forces nothing: it
    /// commits at [`LogManager::end_lsn`], the LSN its Commit would have
    /// taken. Its hook events and `pre_release` run exactly as for any
    /// other commit.
    pub fn commit_with_hooks(
        &self,
        txn: &mut Transaction,
        pre_append: impl FnOnce(&mut Transaction) -> Result<bool>,
        pre_release: impl FnOnce(&mut Transaction, Lsn) -> Result<()>,
    ) -> Result<Lsn> {
        if txn.state != TxnState::Active {
            return Err(Error::invalid(format!("commit of finished {}", txn.id)));
        }
        let hook = self.locks.hook();
        if let Some(h) = &hook {
            h.yield_point(txn.id, &txview_lock::SchedEvent::CommitStart);
        }
        let force = pre_append(txn)?;
        let commit_t0 = self.obs.clock.now();
        let logged = !txn.last_lsn.is_null();
        let commit_lsn = match logged {
            true => self.log.append(txn.id, txn.last_lsn, RecordBody::Commit),
            false => self.log.end_lsn(),
        };
        if force && logged {
            let force_t0 = self.obs.clock.now();
            match self.pipeline() {
                Some(p) => p.commit_wait(txn.id, commit_lsn, hook.as_ref())?,
                // Strict per-commit flush: the serial baseline must not
                // piggyback on concurrent committers' syncs — that sharing
                // is the pipeline's job (see `LogManager::flush_strict`).
                None => self.log.flush_strict(commit_lsn)?,
            }
            self.obs.log_force_us.record(self.obs.clock.now().saturating_sub(force_t0));
        }
        pre_release(txn, commit_lsn)?;
        self.locks.release_all(txn.id);
        txn.state = TxnState::Committed;
        txn.undo.clear();
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.obs.commits.inc();
        self.obs.acquire_us.record(txn.phase_acquire_us);
        self.obs.maintain_us.record(txn.phase_maintain_us);
        self.obs.commit_us.record(self.obs.clock.now().saturating_sub(commit_t0));
        if let Some(h) = &hook {
            h.observe(txn.id, &txview_lock::SchedEvent::Committed { commit_lsn: commit_lsn.0 });
        }
        Ok(commit_lsn)
    }

    /// Roll the transaction back completely. Logical undo actions are
    /// executed by `handler` (the engine), which writes CLRs through the
    /// normal code paths between an Abort and the End that closes the
    /// bracket; locks are released at the end. A transaction that logged
    /// nothing has nothing to undo and appends nothing.
    pub fn rollback(&self, txn: &mut Transaction, handler: &dyn UndoHandler) -> Result<()> {
        if txn.state != TxnState::Active {
            return Err(Error::invalid(format!("rollback of finished {}", txn.id)));
        }
        let hook = self.locks.hook();
        if let Some(h) = &hook {
            h.yield_point(txn.id, &txview_lock::SchedEvent::RollbackStart);
        }
        if !txn.last_lsn.is_null() {
            txn.last_lsn = self.log.append(txn.id, txn.last_lsn, RecordBody::Abort);
            self.rollback_to(txn, 0, handler)?;
            txn.last_lsn = self.log.append(txn.id, txn.last_lsn, RecordBody::End);
        }
        txn.state = TxnState::Aborted;
        self.locks.release_all(txn.id);
        self.active.fetch_sub(1, Ordering::Relaxed);
        self.obs.rollbacks.inc();
        if let Some(h) = &hook {
            h.observe(txn.id, &txview_lock::SchedEvent::RolledBack);
        }
        Ok(())
    }

    /// Partial rollback to a savepoint token from
    /// [`Transaction::savepoint`]. Locks are retained (standard savepoint
    /// semantics — they may protect earlier, kept work).
    pub fn rollback_to_savepoint(
        &self,
        txn: &mut Transaction,
        savepoint: usize,
        handler: &dyn UndoHandler,
    ) -> Result<()> {
        if txn.state != TxnState::Active {
            return Err(Error::invalid(format!("savepoint rollback of finished {}", txn.id)));
        }
        self.rollback_to(txn, savepoint, handler)
    }

    fn rollback_to(&self, txn: &mut Transaction, upto: usize, handler: &dyn UndoHandler) -> Result<()> {
        while txn.undo.len() > upto {
            let entry = txn.undo.pop().expect("checked non-empty");
            // CLRs written by the handler chain through txn.last_lsn, so
            // records logged after a savepoint rollback back-chain through
            // them (crash-undo then skips the compensated work).
            handler.undo(txn.id, &entry.op, entry.undo_next, &mut txn.last_lsn)?;
        }
        Ok(())
    }

    /// Run `body` inside a system transaction (nested top action): its log
    /// records commit independently of any user transaction, with a Commit
    /// that closes the bracket its first record opened — or with nothing,
    /// when it logged nothing. On error the system transaction's page
    /// operations are *not* rolled back here — callers must only fail
    /// before making changes (the B-tree upholds this) — so an error
    /// simply abandons the bracket, if one was opened.
    pub fn system<R>(
        &self,
        body: impl FnOnce(TxnId, &mut Lsn) -> Result<R>,
    ) -> Result<R> {
        let id = self.log.alloc_txn_id();
        let mut last = Lsn::NULL;
        let out = body(id, &mut last)?;
        if !last.is_null() {
            self.log.append(id, last, RecordBody::Commit);
        }
        Ok(out)
    }

    /// Forget all active-transaction bookkeeping (volatile state lost in a
    /// crash; recovery rebuilds what matters from the log).
    pub fn reset_active(&self) {
        self.active.store(0, Ordering::Relaxed);
    }

    /// Number of currently active user transactions (diagnostics).
    pub fn active_count(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;
    use crate::txn::Transaction;
    use txview_common::{IndexId, PageId};
    use txview_lock::{LockMode, LockName};
    use txview_storage::buffer::BufferPool;
    use txview_storage::disk::MemDisk;
    use txview_wal::record::{RedoOp, UndoOp};

    struct Recording(Mutex<Vec<UndoOp>>);
    impl UndoHandler for Recording {
        fn undo(&self, _txn: TxnId, op: &UndoOp, _next: Lsn, _chain: &mut Lsn) -> Result<()> {
            self.0.lock().push(op.clone());
            Ok(())
        }
    }

    fn setup() -> (Arc<LogManager>, Arc<LockManager>, TxnManager) {
        let log = Arc::new(LogManager::in_memory());
        let locks = Arc::new(LockManager::new(Duration::from_millis(500)));
        let mgr = TxnManager::new(Arc::clone(&log), Arc::clone(&locks));
        (log, locks, mgr)
    }

    fn key_undo(n: u8) -> UndoOp {
        UndoOp::IndexInsert { index: IndexId(1), key: vec![n] }
    }

    /// Log one page record for `t` with undo `key_undo(n)`, as the
    /// engine's write path does.
    fn write(log: &LogManager, t: &mut Transaction, n: u8) {
        let prev = t.last_lsn;
        let body =
            RecordBody::Update { page: PageId(1), redo: RedoOp::SlotRemove { idx: 0 }, undo: key_undo(n) };
        t.last_lsn = log.append(t.id, prev, body);
        t.push_undo(key_undo(n), prev);
    }

    #[test]
    fn begin_commit_writes_records_and_releases_locks() {
        let (log, locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        locks.acquire(t.id, LockName::key(IndexId(1), vec![1]), LockMode::X).unwrap();
        assert_eq!(locks.held_count(t.id), 1);
        write(&log, &mut t, 1);
        let commit_lsn = mgr.commit(&mut t).unwrap();
        assert_eq!(locks.held_count(t.id), 0);
        assert!(log.flushed_lsn() >= commit_lsn, "commit is durable");
        let recs = log.read_durable_from(0).unwrap();
        assert!(matches!(recs[0].body, RecordBody::Update { .. }), "no Begin record");
        assert!(matches!(recs[1].body, RecordBody::Commit));
        assert_eq!(recs.len(), 2, "no End after Commit");
        assert_eq!(t.state, TxnState::Committed);
        assert_eq!(mgr.active_count(), 0);
    }

    /// A transaction that logged nothing appends nothing when it commits or
    /// rolls back, forces nothing, and commits at the log's end.
    #[test]
    fn logless_commit_and_rollback_append_nothing() {
        let (log, locks, mgr) = setup();
        let mut w = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut w, 1);
        let end = Lsn(log.last_allocated_lsn().0 + 1);
        let mut r = mgr.begin(IsolationLevel::Serializable);
        locks.acquire(r.id, LockName::key(IndexId(1), vec![2]), LockMode::S).unwrap();
        let stamp = std::cell::Cell::new(Lsn::NULL);
        let lsn = mgr.commit_with_hooks(&mut r, |_| Ok(true), |_, l| Ok(stamp.set(l))).unwrap();
        assert_eq!((lsn, stamp.get()), (log.end_lsn(), lsn), "pre_release sees the commit LSN");
        assert!(lsn >= end);
        assert_eq!((r.state, locks.held_count(r.id)), (TxnState::Committed, 0));
        assert_eq!(log.flushed_lsn(), Lsn::NULL, "nothing forced");
        let mut r2 = mgr.begin(IsolationLevel::ReadCommitted);
        mgr.rollback(&mut r2, &Recording(Mutex::new(Vec::new()))).unwrap();
        assert_eq!(r2.state, TxnState::Aborted);
        assert_eq!(log.appended_records(), 1, "only the writer's page record");
        assert_eq!(mgr.active_count(), 1);
        mgr.commit(&mut w).unwrap();
        assert_eq!(log.appended_records(), 2);
    }

    #[test]
    fn no_force_commit_skips_the_log_flush() {
        let (log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::Snapshot);
        write(&log, &mut t, 1);
        let flushed_before = log.flushed_lsn();
        let commit_lsn = mgr.commit_with_hooks(&mut t, |_| Ok(false), |_, _| Ok(())).unwrap();
        assert_eq!(t.state, TxnState::Committed);
        assert!(commit_lsn > flushed_before);
        assert_eq!(log.flushed_lsn(), flushed_before, "no group flush forced");
    }

    #[test]
    fn pre_append_hook_runs_before_the_commit_record() {
        let (log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut t, 1);
        let seen = std::cell::Cell::new(Lsn::NULL);
        let commit_lsn = mgr
            .commit_with_hooks(
                &mut t,
                |txn| {
                    assert!(txn.is_active());
                    seen.set(log.last_allocated_lsn());
                    Ok(true)
                },
                |_, _| Ok(()),
            )
            .unwrap();
        assert!(
            commit_lsn > seen.get(),
            "commit record ({commit_lsn:?}) must be appended after the hook ran ({:?})",
            seen.get()
        );
        assert!(log.flushed_lsn() >= commit_lsn, "force=true from the hook is honored");
    }

    #[test]
    fn pre_append_hook_failure_leaves_txn_active_and_log_commit_free() {
        let (log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        let err = mgr
            .commit_with_hooks(&mut t, |_| Err(Error::invalid("flush failed")), |_, _| Ok(()))
            .unwrap_err();
        assert!(format!("{err}").contains("flush failed"));
        assert!(t.is_active(), "caller still owns the rollback");
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert!(
            recs.iter().all(|r| !matches!(r.body, RecordBody::Commit)),
            "no commit record may exist for a failed pre-append hook"
        );
        let h = Recording(Mutex::new(Vec::new()));
        mgr.rollback(&mut t, &h).unwrap();
    }

    #[test]
    fn double_commit_rejected() {
        let (_log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        mgr.commit(&mut t).unwrap();
        assert!(mgr.commit(&mut t).is_err());
    }

    #[test]
    fn rollback_undoes_in_reverse_and_releases_locks() {
        let (log, locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        locks.acquire(t.id, LockName::key(IndexId(1), vec![9]), LockMode::E).unwrap();
        write(&log, &mut t, 1);
        write(&log, &mut t, 2);
        let h = Recording(Mutex::new(Vec::new()));
        mgr.rollback(&mut t, &h).unwrap();
        let calls = h.0.into_inner();
        assert_eq!(calls, vec![key_undo(2), key_undo(1)]);
        assert_eq!(t.state, TxnState::Aborted);
        assert_eq!(locks.held_count(t.id), 0);
        log.flush_all().unwrap();
        let tags: Vec<_> = log.read_durable_from(0).unwrap().into_iter().map(|r| r.body).collect();
        assert!(matches!(tags[..], [RecordBody::Update { .. }, _, RecordBody::Abort, RecordBody::End]));
    }

    #[test]
    fn savepoint_rolls_back_suffix_only() {
        let (log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut t, 1);
        let sp = t.savepoint();
        write(&log, &mut t, 2);
        write(&log, &mut t, 3);
        let h = Recording(Mutex::new(Vec::new()));
        mgr.rollback_to_savepoint(&mut t, sp, &h).unwrap();
        assert_eq!(h.0.lock().as_slice(), &[key_undo(3), key_undo(2)]);
        assert_eq!(t.undo_len(), 1);
        assert!(t.is_active());
        // Full rollback still undoes the rest.
        let h2 = Recording(Mutex::new(Vec::new()));
        mgr.rollback(&mut t, &h2).unwrap();
        assert_eq!(h2.0.lock().as_slice(), &[key_undo(1)]);
    }

    #[test]
    fn system_txn_brackets_commit_immediately() {
        let (log, _locks, mgr) = setup();
        let out = mgr.system(|id, last| {
            assert!(!id.is_none());
            assert!(last.is_null(), "no Begin record");
            let body = RecordBody::Update { page: PageId(1), redo: RedoOp::SlotRemove { idx: 0 }, undo: UndoOp::None };
            *last = log.append(id, *last, body);
            Ok(42)
        }).unwrap();
        assert_eq!(out, 42);
        // A system transaction that logs nothing appends nothing.
        assert_eq!(mgr.system(|_, _| Ok(7)).unwrap(), 7);
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert!(matches!(recs[0].body, RecordBody::Update { .. }));
        assert!(matches!(recs[1].body, RecordBody::Commit));
        assert_eq!(recs.len(), 2, "no End after Commit");
    }

    /// Byte offset of record `lsn` and the master checkpoint's `scan_from`.
    fn offset_and_scan_from(log: &LogManager, lsn: Lsn) -> (u64, u64) {
        let at = lsn.0;
        match log.read_record_at(log.master().unwrap()).unwrap().unwrap().body {
            RecordBody::Checkpoint { scan_from, .. } => (at, scan_from),
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    /// A checkpoint covers the transactions open when it is taken: restart
    /// reads from the oldest one's first record.
    #[test]
    fn checkpoint_records_active_transactions() {
        let (log, _locks, mgr) = setup();
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4);
        let mut t0 = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut t0, 0);
        mgr.commit(&mut t0).unwrap();
        let mut t1 = mgr.begin(IsolationLevel::Serializable);
        let mut t2 = mgr.begin(IsolationLevel::Serializable);
        write(&log, &mut t1, 1);
        write(&log, &mut t2, 2);
        write(&log, &mut t1, 3);
        log.checkpoint(&pool).unwrap();
        let t1_first = log.read_durable_from(0).unwrap()[2].lsn;
        let (begin_at, scan_from) = offset_and_scan_from(&log, t1_first);
        assert!(begin_at > 0, "t0 precedes t1");
        assert_eq!(scan_from, begin_at);
    }

    #[test]
    fn checkpoint_ignores_a_transaction_that_logged_nothing() {
        let (log, _locks, mgr) = setup();
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4);
        let _reader = mgr.begin(IsolationLevel::Serializable);
        let mut t1 = mgr.begin(IsolationLevel::Serializable);
        write(&log, &mut t1, 1);
        log.checkpoint(&pool).unwrap();
        let (begin_at, scan_from) = offset_and_scan_from(&log, t1.last_lsn);
        assert_eq!(scan_from, begin_at, "the reader holds nothing back");
    }

    /// System transactions never enter the user registry, yet a checkpoint
    /// taken inside one still reads from its first record.
    #[test]
    fn checkpoint_inside_a_system_transaction_scans_from_its_first_record() {
        let (log, _locks, mgr) = setup();
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4);
        let mut t0 = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut t0, 0);
        mgr.commit(&mut t0).unwrap();
        let begin = mgr
            .system(|id, last| {
                let body = RecordBody::Update { page: PageId(1), redo: RedoOp::SlotRemove { idx: 0 }, undo: UndoOp::None };
                *last = log.append(id, *last, body);
                let begin = *last;
                log.checkpoint(&pool)?;
                Ok(begin)
            })
            .unwrap();
        assert_eq!(mgr.active_count(), 0);
        let (begin_at, scan_from) = offset_and_scan_from(&log, begin);
        assert_eq!(scan_from, begin_at);
    }

    #[test]
    fn obs_snapshot_tracks_commit_phases() {
        let (_log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        write(mgr.log(), &mut t, 1);
        t.phase_acquire_us = 7;
        t.phase_maintain_us = 11;
        mgr.commit(&mut t).unwrap();
        let mut t2 = mgr.begin(IsolationLevel::ReadCommitted);
        let h = Recording(Mutex::new(Vec::new()));
        mgr.rollback(&mut t2, &h).unwrap();
        let s = mgr.obs_snapshot();
        assert_eq!(s.counter_value("txn.commits"), Some(1));
        assert_eq!(s.counter_value("txn.rollbacks"), Some(1));
        assert_eq!(s.gauge_value("txn.active"), Some(0));
        let acq = s.hist_value("txn.phase.acquire_us").unwrap();
        assert_eq!((acq.count(), acq.sum), (1, 7));
        let mnt = s.hist_value("txn.phase.maintain_us").unwrap();
        assert_eq!((mnt.count(), mnt.sum), (1, 11));
        assert_eq!(s.hist_value("txn.phase.log_force_us").unwrap().count(), 1);
        assert_eq!(s.hist_value("txn.phase.commit_us").unwrap().count(), 1);
        s.validate().unwrap();
    }

    #[test]
    fn pipeline_commit_is_durable_and_counted() {
        let (log, _locks, mgr) = setup();
        mgr.enable_pipeline();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut t, 1);
        let commit_lsn = mgr.commit(&mut t).unwrap();
        assert!(log.flushed_lsn() >= commit_lsn, "pipelined commit is durable");
        let s = mgr.obs_snapshot();
        assert_eq!(s.counter_value("txn.pipeline.leader_syncs"), Some(1));
        s.validate().unwrap();
    }

    #[test]
    fn snapshot_lsn_taken_at_begin() {
        let (log, _locks, mgr) = setup();
        let t1 = mgr.begin(IsolationLevel::Snapshot);
        let before = t1.snapshot_lsn;
        // Other activity advances the log.
        let mut t2 = mgr.begin(IsolationLevel::ReadCommitted);
        write(&log, &mut t2, 1);
        mgr.commit(&mut t2).unwrap();
        let t3 = mgr.begin(IsolationLevel::Snapshot);
        assert!(t3.snapshot_lsn > before);
        assert!(log.last_allocated_lsn() >= t3.snapshot_lsn);
    }
}
