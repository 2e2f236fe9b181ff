//! The transaction manager: begin / commit / rollback / savepoint /
//! system transactions.

use crate::pipeline::CommitPipeline;
use crate::txn::{IsolationLevel, Transaction, TxnState};
use parking_lot::RwLock;
use std::sync::Arc;
use txview_common::obs::{Counter, Histogram, ObsClock, Snapshot};
use txview_common::sharded::ShardMap;
use txview_common::{Error, Lsn, Result, TxnId};
use txview_lock::LockManager;
use txview_wal::record::{RecordBody, TxnKind};
use txview_wal::recovery::UndoHandler;
use txview_wal::LogManager;

/// Coordinates transactions over the log and lock managers.
pub struct TxnManager {
    log: Arc<LogManager>,
    locks: Arc<LockManager>,
    /// Active user transactions (diagnostics: `active_txns`, the
    /// `txn.active` gauge), sharded by txn id so begin/commit from
    /// concurrent workers don't serialize on one registry mutex. What a
    /// checkpoint needs of them, the log manager tracks itself.
    active: ShardMap<TxnId, ()>,
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
    /// Whole commit protocol: append → force → stamp → release → End.
    pub commit_us: Histogram,
}

impl TxnManager {
    /// Create a manager over shared log and lock managers.
    pub fn new(log: Arc<LogManager>, locks: Arc<LockManager>) -> TxnManager {
        TxnManager {
            log,
            locks,
            active: ShardMap::with_default_shards(),
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
        s.gauge("txn.active", self.active.len() as i64);
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

    /// Begin a user transaction at the given isolation level.
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let id = self.log.alloc_txn_id();
        let snapshot_lsn = self.log.last_allocated_lsn();
        let last_lsn = self.log.append(id, Lsn::NULL, RecordBody::Begin { kind: TxnKind::User });
        self.active.insert(id, ());
        Transaction {
            id,
            isolation,
            last_lsn,
            snapshot_lsn,
            state: TxnState::Active,
            undo: Vec::new(),
            phase_acquire_us: 0,
            phase_maintain_us: 0,
        }
    }

    /// Commit: force the commit record, release all locks, log End.
    /// Returns the commit LSN (the version stamp for snapshot readers).
    pub fn commit(&self, txn: &mut Transaction) -> Result<Lsn> {
        self.commit_with_hooks(txn, |_| Ok(true), |_| Ok(()))
    }

    /// The commit seam the engine uses: `pre_append` runs *inside* the
    /// transaction, after the commit decision but **before the commit record is
    /// appended** — the engine flushes its cascade queue there, so derived
    /// views are refreshed by ordinary logged maintenance that the commit
    /// record then covers. It returns the log-force flag, computed *after*
    /// its own work so a cascade flush upgrades a would-be no-force commit.
    /// On error the transaction is left Active for the caller to roll back
    /// — nothing has been appended yet. Then: append → wait/flush →
    /// `pre_release` → release.
    pub fn commit_with_hooks(
        &self,
        txn: &mut Transaction,
        pre_append: impl FnOnce(&mut Transaction) -> Result<bool>,
        pre_release: impl FnOnce(Lsn) -> Result<()>,
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
        let commit_lsn = self.log.append(txn.id, txn.last_lsn, RecordBody::Commit);
        if force {
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
        pre_release(commit_lsn)?;
        self.locks.release_all(txn.id);
        txn.last_lsn = self.log.append(txn.id, commit_lsn, RecordBody::End);
        txn.state = TxnState::Committed;
        txn.undo.clear();
        self.active.remove(&txn.id);
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
    /// normal code paths; locks are released at the end.
    pub fn rollback(&self, txn: &mut Transaction, handler: &dyn UndoHandler) -> Result<()> {
        if txn.state != TxnState::Active {
            return Err(Error::invalid(format!("rollback of finished {}", txn.id)));
        }
        let hook = self.locks.hook();
        if let Some(h) = &hook {
            h.yield_point(txn.id, &txview_lock::SchedEvent::RollbackStart);
        }
        txn.last_lsn = self.log.append(txn.id, txn.last_lsn, RecordBody::Abort);
        self.rollback_to(txn, 0, handler)?;
        txn.last_lsn = self.log.append(txn.id, txn.last_lsn, RecordBody::End);
        txn.state = TxnState::Aborted;
        self.locks.release_all(txn.id);
        self.active.remove(&txn.id);
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
    /// records commit independently of any user transaction. On error the
    /// system transaction's page operations are *not* rolled back here —
    /// callers must only fail before making changes (the B-tree upholds
    /// this) — so an error simply abandons the bracket.
    pub fn system<R>(
        &self,
        body: impl FnOnce(TxnId, &mut Lsn) -> Result<R>,
    ) -> Result<R> {
        let id = self.log.alloc_txn_id();
        let mut last = self.log.append(id, Lsn::NULL, RecordBody::Begin { kind: TxnKind::System });
        let out = body(id, &mut last)?;
        let commit = self.log.append(id, last, RecordBody::Commit);
        self.log.append(id, commit, RecordBody::End);
        Ok(out)
    }

    /// Forget all active-transaction bookkeeping (volatile state lost in a
    /// crash; recovery rebuilds what matters from the log).
    pub fn reset_active(&self) {
        self.active.clear();
    }

    /// Ids of currently active transactions (diagnostics), sorted.
    pub fn active_txns(&self) -> Vec<TxnId> {
        let mut ids = self.active.keys();
        ids.sort();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::time::Duration;
    use txview_common::IndexId;
    use txview_lock::{LockMode, LockName};
    use txview_storage::buffer::BufferPool;
    use txview_storage::disk::MemDisk;
    use txview_wal::record::UndoOp;

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

    #[test]
    fn begin_commit_writes_records_and_releases_locks() {
        let (log, locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        locks.acquire(t.id, LockName::key(IndexId(1), vec![1]), LockMode::X).unwrap();
        assert_eq!(locks.held_count(t.id), 1);
        let commit_lsn = mgr.commit(&mut t).unwrap();
        assert_eq!(locks.held_count(t.id), 0);
        assert!(log.flushed_lsn() >= commit_lsn, "commit is durable");
        let recs = log.read_durable_from(0).unwrap();
        assert!(matches!(recs[0].1.body, RecordBody::Begin { kind: TxnKind::User }));
        assert!(matches!(recs[1].1.body, RecordBody::Commit));
        assert_eq!(t.state, TxnState::Committed);
        assert!(mgr.active_txns().is_empty());
    }

    #[test]
    fn no_force_commit_skips_the_log_flush() {
        let (log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::Snapshot);
        let flushed_before = log.flushed_lsn();
        let commit_lsn = mgr.commit_with_hooks(&mut t, |_| Ok(false), |_| Ok(())).unwrap();
        assert_eq!(t.state, TxnState::Committed);
        assert!(commit_lsn > flushed_before);
        assert_eq!(log.flushed_lsn(), flushed_before, "no group flush forced");
    }

    #[test]
    fn pre_append_hook_runs_before_the_commit_record() {
        let (log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        let seen = std::cell::Cell::new(Lsn::NULL);
        let commit_lsn = mgr
            .commit_with_hooks(
                &mut t,
                |txn| {
                    assert!(txn.is_active());
                    seen.set(log.last_allocated_lsn());
                    Ok(true)
                },
                |_| Ok(()),
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
            .commit_with_hooks(&mut t, |_| Err(Error::invalid("flush failed")), |_| Ok(()))
            .unwrap_err();
        assert!(format!("{err}").contains("flush failed"));
        assert!(t.is_active(), "caller still owns the rollback");
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert!(
            recs.iter().all(|(_, r)| !matches!(r.body, RecordBody::Commit)),
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
        let (_log, locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        locks.acquire(t.id, LockName::key(IndexId(1), vec![9]), LockMode::E).unwrap();
        t.push_undo(key_undo(1), Lsn(10));
        t.push_undo(key_undo(2), Lsn(11));
        let h = Recording(Mutex::new(Vec::new()));
        mgr.rollback(&mut t, &h).unwrap();
        let calls = h.0.into_inner();
        assert_eq!(calls, vec![key_undo(2), key_undo(1)]);
        assert_eq!(t.state, TxnState::Aborted);
        assert_eq!(locks.held_count(t.id), 0);
    }

    #[test]
    fn savepoint_rolls_back_suffix_only() {
        let (_log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
        t.push_undo(key_undo(1), Lsn(10));
        let sp = t.savepoint();
        t.push_undo(key_undo(2), Lsn(11));
        t.push_undo(key_undo(3), Lsn(12));
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
            assert!(!last.is_null());
            Ok(42)
        }).unwrap();
        assert_eq!(out, 42);
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert!(matches!(recs[0].1.body, RecordBody::Begin { kind: TxnKind::System }));
        assert!(matches!(recs[1].1.body, RecordBody::Commit));
        assert!(matches!(recs[2].1.body, RecordBody::End));
    }

    /// Byte offset of record `lsn` and the master checkpoint's `scan_from`.
    fn offset_and_scan_from(log: &LogManager, lsn: Lsn) -> (u64, u64) {
        let at = log.read_durable_from(0).unwrap().into_iter().find(|(_, r)| r.lsn == lsn).unwrap().0;
        match log.read_record_at(log.master().unwrap().0).unwrap().unwrap().body {
            RecordBody::Checkpoint { scan_from, .. } => (at, scan_from),
            other => panic!("expected checkpoint, got {other:?}"),
        }
    }

    /// A checkpoint covers the transactions open when it is taken: restart
    /// reads from the oldest one's Begin.
    #[test]
    fn checkpoint_records_active_transactions() {
        let (log, _locks, mgr) = setup();
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4);
        let mut t0 = mgr.begin(IsolationLevel::ReadCommitted);
        mgr.commit(&mut t0).unwrap();
        let t1 = mgr.begin(IsolationLevel::Serializable);
        let _t2 = mgr.begin(IsolationLevel::Serializable);
        log.checkpoint(&pool).unwrap();
        let (begin_at, scan_from) = offset_and_scan_from(&log, t1.last_lsn);
        assert!(begin_at > 0, "t0 precedes t1");
        assert_eq!(scan_from, begin_at);
    }

    /// System transactions never enter the user registry, yet a checkpoint
    /// taken inside one still reads from its Begin.
    #[test]
    fn checkpoint_inside_a_system_transaction_scans_from_its_begin() {
        let (log, _locks, mgr) = setup();
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4);
        let mut t0 = mgr.begin(IsolationLevel::ReadCommitted);
        mgr.commit(&mut t0).unwrap();
        let begin = mgr
            .system(|_, last| {
                let begin = *last;
                log.checkpoint(&pool)?;
                Ok(begin)
            })
            .unwrap();
        assert!(mgr.active_txns().is_empty());
        let (begin_at, scan_from) = offset_and_scan_from(&log, begin);
        assert_eq!(scan_from, begin_at);
    }

    #[test]
    fn obs_snapshot_tracks_commit_phases() {
        let (_log, _locks, mgr) = setup();
        let mut t = mgr.begin(IsolationLevel::ReadCommitted);
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
        mgr.commit(&mut t2).unwrap();
        let t3 = mgr.begin(IsolationLevel::Snapshot);
        assert!(t3.snapshot_lsn > before);
        assert!(log.last_allocated_lsn() >= t3.snapshot_lsn);
    }
}
