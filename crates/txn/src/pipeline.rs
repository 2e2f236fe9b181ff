//! Leader-based group commit with a pipelined WAL.
//!
//! Committers enqueue their commit LSN on a shared queue. Exactly one of
//! them — the *leader* — drains the queue, performs a single
//! `append_upto` + `sync_appended` for the whole batch, then wakes the
//! batch. Everyone else parks. The pipeline is two-deep: when a parked
//! successor already exists, the leader hands off leadership *between*
//! its append and its sync, so batch N+1 forms and appends to the OS
//! while batch N's fsync is still in flight. When no successor exists
//! yet, the leader retains leadership through its sync so that arrivals
//! park behind it and batch — never more than two leader rounds (one
//! appending, one syncing) are ever in flight. The WAL's `appended_lsn`
//! watermark keeps the two phases idempotent — a handed-off leader whose
//! LSNs were already appended skips straight to the sync.
//!
//! Failure semantics: a failed sync is recorded as covering every LSN in
//! `(flushed, batch_max]`. Parked committers inside that window error out
//! (no false acks — the engine's health machine sees the real error), and
//! committers that arrive later retry by leading their own round, which
//! matches the serial `flush_to` retry semantics. A successful later sync
//! prunes stale failure records.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use txview_common::obs::{Counter, Histogram, ObsClock, Snapshot};
use txview_common::{Error, Lsn, Result, TxnId};
use txview_lock::{SchedEvent, SchedHook};
use txview_wal::LogManager;

/// Reconstructable error info for broadcasting one sync failure to a
/// whole batch ([`Error`] is not `Clone`).
#[derive(Clone, Debug)]
pub enum ErrInfo {
    /// Transient I/O (retry layers already exhausted within the sync).
    Transient(String),
    /// Terminal I/O.
    Io(String),
    /// Corruption — fences the engine via `note_commit_result`.
    Corruption(String),
    /// Anything else, preserved as text.
    Other(String),
}

impl ErrInfo {
    fn of(e: &Error) -> ErrInfo {
        match e {
            Error::IoTransient(io) => ErrInfo::Transient(io.to_string()),
            Error::Io(io) => ErrInfo::Io(io.to_string()),
            Error::Corruption(m) => ErrInfo::Corruption(m.clone()),
            other => ErrInfo::Other(other.to_string()),
        }
    }

    fn to_error(&self) -> Error {
        match self {
            ErrInfo::Transient(m) => Error::IoTransient(std::io::Error::other(m.clone())),
            ErrInfo::Io(m) => Error::Io(std::io::Error::other(m.clone())),
            ErrInfo::Corruption(m) => Error::corruption(m.clone()),
            ErrInfo::Other(m) => Error::invalid(m.clone()),
        }
    }
}

/// What a parked committer's slot resolved to.
enum WaiterSlot {
    /// Still parked.
    Pending,
    /// Batch flushed; the commit is durable.
    Ack,
    /// The batch sync covering this LSN failed.
    Fail(ErrInfo),
    /// Promoted: wake up and lead the next batch yourself.
    Lead,
}

struct State {
    /// Enqueued, not-yet-batched committers.
    queue: Vec<(TxnId, Lsn)>,
    /// True while some thread is inside a lead round.
    leader_active: bool,
    /// Parked committers awaiting resolution.
    waiters: HashMap<TxnId, WaiterSlot>,
    /// Unconsumed sync failures as `(batch_max, err)`: the failure covers
    /// every waiter with `flushed < lsn <= batch_max`.
    failures: Vec<(Lsn, ErrInfo)>,
}

/// Group-commit pipeline observability.
pub struct PipelineObs {
    clock: Arc<ObsClock>,
    /// Commits resolved per leader sync (batch size).
    pub batch_commits: Histogram,
    /// Commits an earlier sync had already made durable, acked without
    /// joining any batch. With `batch_commits`' sum they count every
    /// `commit_wait` exactly once.
    pub fast_acks: Counter,
    /// Follower park-to-wake latency, µs (virtual ticks under torture).
    pub park_to_wake_us: Histogram,
    /// Lead rounds that reached the sync phase.
    pub leader_syncs: Counter,
    /// Committers that parked behind a leader.
    pub follower_waits: Counter,
}

impl PipelineObs {
    fn new() -> PipelineObs {
        PipelineObs {
            clock: Arc::new(ObsClock::new()),
            batch_commits: Histogram::default(),
            fast_acks: Counter::default(),
            park_to_wake_us: Histogram::default(),
            leader_syncs: Counter::default(),
            follower_waits: Counter::default(),
        }
    }
}

/// Leader-based group-commit pipeline over one [`LogManager`].
pub struct CommitPipeline {
    log: Arc<LogManager>,
    state: Mutex<State>,
    cv: Condvar,
    /// Metrics.
    pub obs: PipelineObs,
}

impl CommitPipeline {
    /// New pipeline over `log`.
    pub fn new(log: Arc<LogManager>) -> CommitPipeline {
        CommitPipeline {
            log,
            state: Mutex::new(State {
                queue: Vec::new(),
                leader_active: false,
                waiters: HashMap::new(),
                failures: Vec::new(),
            }),
            cv: Condvar::new(),
            obs: PipelineObs::new(),
        }
    }

    /// Switch the metrics clock to virtual ticks (torture determinism).
    pub fn use_ticks(&self, ticks: Arc<std::sync::atomic::AtomicU64>) {
        self.obs.clock.use_ticks(ticks);
    }

    /// Make `commit_lsn` durable via the group-commit protocol: lead a
    /// batch if no leader is active, otherwise park until a leader
    /// resolves us (ack, failure, or promotion to lead the next batch).
    pub fn commit_wait(
        &self,
        txn: TxnId,
        commit_lsn: Lsn,
        hook: Option<&Arc<dyn SchedHook>>,
    ) -> Result<()> {
        if self.log.flushed_lsn() >= commit_lsn {
            self.obs.fast_acks.inc();
            return Ok(());
        }
        {
            let mut st = self.state.lock();
            // A failure recorded while we were not yet enqueued cannot
            // cover us: our append happened before, so if flushed < lsn
            // now, we must (re)try, not inherit a stale verdict.
            if !st.leader_active {
                st.leader_active = true;
                st.queue.push((txn, commit_lsn));
                drop(st);
                return self.lead_round(txn, commit_lsn, hook);
            }
            st.queue.push((txn, commit_lsn));
            st.waiters.insert(txn, WaiterSlot::Pending);
            self.obs.follower_waits.inc();
        }
        self.park(txn, commit_lsn, hook)
    }

    /// Park until our waiter slot resolves; a `Lead` resolution loops us
    /// into running our own round.
    fn park(
        &self,
        txn: TxnId,
        commit_lsn: Lsn,
        hook: Option<&Arc<dyn SchedHook>>,
    ) -> Result<()> {
        if let Some(h) = hook {
            h.on_block(txn, &SchedEvent::LogForceWait { commit_lsn: commit_lsn.0 });
        }
        let t0 = self.obs.clock.now();
        let outcome = {
            let mut st = self.state.lock();
            loop {
                match st.waiters.get(&txn) {
                    Some(WaiterSlot::Pending) => self.cv.wait(&mut st),
                    _ => break st.waiters.remove(&txn).expect("waiter slot present"),
                }
            }
        };
        self.obs.park_to_wake_us.record(self.obs.clock.now().saturating_sub(t0));
        if let Some(h) = hook {
            h.on_resume(txn);
        }
        match outcome {
            WaiterSlot::Ack => Ok(()),
            WaiterSlot::Fail(info) => Err(info.to_error()),
            WaiterSlot::Lead => self.lead_round(txn, commit_lsn, hook),
            WaiterSlot::Pending => unreachable!("loop exits only on resolution"),
        }
    }

    /// Run one lead round: drain the queue, append the batch, hand off
    /// leadership, sync, resolve the batch. Returns this committer's own
    /// result.
    fn lead_round(
        &self,
        me: TxnId,
        my_lsn: Lsn,
        hook: Option<&Arc<dyn SchedHook>>,
    ) -> Result<()> {
        // Drain everything queued so far into this batch.
        let batch: Vec<(TxnId, Lsn)> = {
            let mut st = self.state.lock();
            debug_assert!(st.leader_active);
            std::mem::take(&mut st.queue)
        };
        let batch_max =
            batch.iter().map(|&(_, l)| l).chain(std::iter::once(my_lsn)).max().unwrap();

        // Yield before the append while `leader_active` is still true:
        // this is the window in which arriving committers park as
        // followers of this batch (or of the mid-round handoff below).
        if let Some(h) = hook {
            h.yield_point(me, &SchedEvent::LeaderAppend { upto: batch_max.0 });
        }
        self.log.probe_point("wal.pipeline.mid_batch");
        let append_res = self.log.append_upto(batch_max);

        if let Err(e) = append_res {
            // Append itself failed: nothing new became syncable; resolve
            // the whole batch with the error and stand down. We still
            // hold leadership here (the handoff below never ran), so
            // release it or `finish_round` can promote nobody and every
            // parked follower is stranded forever.
            let info = ErrInfo::of(&e);
            let mut st = self.state.lock();
            for &(t, l) in &batch {
                if t != me {
                    self.resolve(&mut st, t, l, WaiterSlot::Fail(info.clone()), hook);
                }
            }
            st.leader_active = false;
            self.finish_round(&mut st, hook);
            self.cv.notify_all();
            return Err(e);
        }

        self.log.probe_point("wal.pipeline.post_append_pre_wake");

        // Pipelined handoff: if a parked committer beyond the appended
        // watermark already exists, promote it to leader now — it appends
        // batch N+1 while our sync for batch N is in flight (the two-deep
        // pipeline). If nobody is promotable yet, *retain* leadership
        // through the sync: committers arriving while we fsync must park
        // as followers of the next batch, not self-lead. (Releasing
        // leadership here unconditionally was the group-commit bug: with
        // a real device every arrival during the sync became its own
        // batch-of-one leader, the leaders convoyed on the WAL sync
        // mutex, and batching never engaged — one device sync per commit,
        // exactly the serial path the pipeline exists to beat.)
        let mut handed_off = false;
        {
            let mut st = self.state.lock();
            let appended = self.log.appended_lsn();
            let next = st
                .queue
                .iter()
                .find(|&&(t, l)| l > appended && matches!(st.waiters.get(&t), Some(WaiterSlot::Pending)))
                .map(|&(t, l)| (t, l));
            if let Some((t, l)) = next {
                handed_off = true;
                st.waiters.insert(t, WaiterSlot::Lead);
                if let Some(h) = hook {
                    h.on_grant(t, &SchedEvent::LogForceGrant { commit_lsn: l.0 });
                }
                self.cv.notify_all();
            }
        }

        if let Some(h) = hook {
            h.yield_point(me, &SchedEvent::LeaderSync { upto: batch_max.0 });
        }
        self.log.probe_point("wal.pipeline.pre_leader_sync");
        self.obs.leader_syncs.inc();
        let sync_res = self.log.sync_appended();

        // Resolve the batch under the state lock.
        let mut st = self.state.lock();
        let flushed = self.log.flushed_lsn();
        if let Err(ref e) = sync_res {
            // This failure covers every LSN appended but not flushed, up
            // to what this round attempted to cover.
            let covered = self.log.appended_lsn().max(batch_max);
            st.failures.push((covered, ErrInfo::of(e)));
        }
        let mut resolved = 0u64;
        for &(t, l) in &batch {
            if t == me {
                continue;
            }
            let slot = if flushed >= l {
                WaiterSlot::Ack
            } else if let Some((_, info)) =
                st.failures.iter().find(|&&(max, _)| l <= max).cloned()
            {
                WaiterSlot::Fail(info)
            } else {
                // Not flushed, not covered by a failure (cannot happen
                // today: a successful sync covers the whole batch and a
                // failed one records coverage up to batch_max — but if it
                // ever does, re-queue so a later round resolves it).
                st.queue.push((t, l));
                continue;
            };
            resolved += 1;
            self.resolve(&mut st, t, l, slot, hook);
        }
        // Our own resolution counts toward the batch size.
        self.obs.batch_commits.record(resolved + 1);
        // Prune failure records that a successful sync has superseded.
        st.failures.retain(|&(max, _)| max > flushed);
        // If leadership was not handed off mid-round, we still hold it:
        // release it so `finish_round` can promote whoever batched up
        // behind our sync (when it was, the successor owns the flag and
        // clears it at the end of its own round).
        if !handed_off {
            st.leader_active = false;
        }
        self.finish_round(&mut st, hook);
        self.cv.notify_all();
        drop(st);

        match sync_res {
            Ok(()) => {
                if self.log.flushed_lsn() >= my_lsn {
                    Ok(())
                } else {
                    // A concurrent pipelined round failed between our
                    // append and our sync-lock acquisition; retry.
                    self.commit_wait(me, my_lsn, hook)
                }
            }
            Err(e) => Err(e),
        }
    }

    /// Set a parked waiter's slot (the waiter itself removes it on wake).
    fn resolve(
        &self,
        st: &mut State,
        txn: TxnId,
        lsn: Lsn,
        slot: WaiterSlot,
        hook: Option<&Arc<dyn SchedHook>>,
    ) {
        if let Some(s) = st.waiters.get_mut(&txn) {
            *s = slot;
            if let Some(h) = hook {
                h.on_grant(txn, &SchedEvent::LogForceGrant { commit_lsn: lsn.0 });
            }
        }
    }

    /// End-of-round bookkeeping: if no leader is active, promote one of
    /// the still-parked committers so nobody is stranded.
    fn finish_round(&self, st: &mut State, hook: Option<&Arc<dyn SchedHook>>) {
        if st.leader_active {
            return;
        }
        let next = st
            .queue
            .iter()
            .find(|&&(t, _)| matches!(st.waiters.get(&t), Some(WaiterSlot::Pending)))
            .map(|&(t, l)| (t, l));
        if let Some((t, l)) = next {
            st.leader_active = true;
            st.waiters.insert(t, WaiterSlot::Lead);
            if let Some(h) = hook {
                h.on_grant(t, &SchedEvent::LogForceGrant { commit_lsn: l.0 });
            }
        }
    }

    /// Block until the pipeline is quiescent: no leader round in flight,
    /// no enqueued committers, and no parked waiter still `Pending`.
    ///
    /// This is the shutdown-ordering seam the server layer needs: closing
    /// a listener while a leader batch is between `append_upto` and
    /// `sync_appended` would otherwise tear down the process with
    /// acked-but-parked committers still waiting on the batch — their
    /// wake (ack or failure) would never be delivered. `drain()` makes
    /// shutdown wait for every in-flight round to resolve its whole batch
    /// first; callers must stop feeding new commits before draining or
    /// the wait may never end.
    ///
    /// Note `drain()` does not itself flush anything: an empty pipeline
    /// with unflushed log tail still needs `LogManager::flush_all` (the
    /// engine's `drain_commits` does both).
    pub fn drain(&self) {
        let mut st = self.state.lock();
        loop {
            let pending_waiters = st
                .waiters
                .values()
                .any(|w| matches!(w, WaiterSlot::Pending | WaiterSlot::Lead));
            if !st.leader_active && st.queue.is_empty() && !pending_waiters {
                return;
            }
            // Round completions broadcast on the same condvar the waiters
            // use, so a drain parked here wakes whenever a batch resolves.
            self.cv.wait(&mut st);
        }
    }

    /// Metrics snapshot under the `txn.pipeline.*` namespace.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.hist("txn.pipeline.batch_commits", self.obs.batch_commits.snapshot());
        s.counter("txn.pipeline.fast_acks", self.obs.fast_acks.get());
        s.hist("txn.pipeline.park_to_wake_us", self.obs.park_to_wake_us.snapshot());
        s.counter("txn.pipeline.leader_syncs", self.obs.leader_syncs.get());
        s.counter("txn.pipeline.follower_waits", self.obs.follower_waits.get());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use txview_wal::{MemLogStore, RecordBody};

    fn mgr() -> Arc<LogManager> {
        Arc::new(LogManager::open(Box::new(MemLogStore::new())).unwrap())
    }

    fn append_commit(log: &LogManager, txn: u64) -> Lsn {
        log.append(TxnId(txn), Lsn::NULL, RecordBody::Commit)
    }

    #[test]
    fn single_committer_self_leads() {
        let log = mgr();
        let p = CommitPipeline::new(Arc::clone(&log));
        let lsn = append_commit(&log, 1);
        p.commit_wait(TxnId(1), lsn, None).unwrap();
        assert!(log.flushed_lsn() >= lsn);
        let s = p.obs_snapshot();
        assert_eq!(s.counter_value("txn.pipeline.leader_syncs"), Some(1));
        assert_eq!(s.counter_value("txn.pipeline.follower_waits"), Some(0));
        assert_eq!(s.hist_value("txn.pipeline.batch_commits").map(|h| h.count()), Some(1));
    }

    #[test]
    fn already_flushed_lsn_is_a_noop() {
        let log = mgr();
        let p = CommitPipeline::new(Arc::clone(&log));
        let lsn = append_commit(&log, 1);
        log.flush_to(lsn).unwrap();
        p.commit_wait(TxnId(1), lsn, None).unwrap();
        assert_eq!(p.obs.leader_syncs.get(), 0, "no round needed");
    }

    #[test]
    fn many_threads_group_commit_all_ack() {
        let log = mgr();
        let p = Arc::new(CommitPipeline::new(Arc::clone(&log)));
        let n = 16;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let max_lsn = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for i in 0..n {
            let (p, log, barrier, max_lsn) =
                (Arc::clone(&p), Arc::clone(&log), Arc::clone(&barrier), Arc::clone(&max_lsn));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for round in 0..20 {
                    let lsn = append_commit(&log, (i * 100 + round) as u64 + 1);
                    max_lsn.fetch_max(lsn.0, Ordering::SeqCst);
                    p.commit_wait(TxnId((i * 100 + round) as u64 + 1), lsn, None).unwrap();
                    assert!(log.flushed_lsn() >= lsn, "acked but not durable");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(log.flushed_lsn().0 >= max_lsn.load(Ordering::SeqCst));
        let s = p.obs_snapshot();
        let batches = s.hist_value("txn.pipeline.batch_commits").unwrap();
        let fast_acks = s.counter_value("txn.pipeline.fast_acks").unwrap();
        // Every commit was resolved exactly once: by one round, or on the
        // fast path because an earlier sync already covered its LSN.
        assert_eq!(batches.sum + fast_acks, (n * 20) as u64);
    }

    #[test]
    fn drain_on_idle_pipeline_returns_immediately() {
        let log = mgr();
        let p = CommitPipeline::new(Arc::clone(&log));
        p.drain(); // must not block
    }

    #[test]
    fn drain_waits_for_in_flight_batches() {
        let log = mgr();
        let p = Arc::new(CommitPipeline::new(Arc::clone(&log)));
        let n = 8;
        let barrier = Arc::new(std::sync::Barrier::new(n + 1));
        let mut handles = Vec::new();
        for i in 0..n {
            let (p, log, barrier) = (Arc::clone(&p), Arc::clone(&log), Arc::clone(&barrier));
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for round in 0..10 {
                    let txn = (i * 100 + round) as u64 + 1;
                    let lsn = append_commit(&log, txn);
                    p.commit_wait(TxnId(txn), lsn, None).unwrap();
                }
            }));
        }
        barrier.wait();
        // Drain concurrently with the committers: when it returns after
        // they finish, no waiter slot may be unresolved and the queue must
        // be empty.
        for h in handles {
            h.join().unwrap();
        }
        p.drain();
        let st = p.state.lock();
        assert!(!st.leader_active);
        assert!(st.queue.is_empty());
        assert!(st.waiters.values().all(|w| !matches!(w, WaiterSlot::Pending)));
    }
}
