//! Scheduler hooks: the seam the deterministic interleaving explorer
//! (`txview-engine::interleave`) threads through the lock and transaction
//! managers.
//!
//! Production code never installs a hook — every call site goes through
//! [`LockManager::hook`](crate::LockManager::hook), which returns `None`
//! and costs one uncontended read-lock probe. Under test, a cooperative
//! virtual scheduler implements [`SchedHook`] and the lock/txn managers
//! call back at every *scheduling-relevant* event:
//!
//! * [`SchedHook::yield_point`] — a true choice point: the calling worker
//!   offers to relinquish its turn *before* performing the event (lock
//!   acquire entry, commit start, rollback start, version publish). The
//!   hook may park the calling thread until a scheduler grants it the
//!   turn again.
//! * [`SchedHook::on_block`] — the worker is about to wait on a lock; the
//!   hook must mark it blocked and *return* (the thread then enters the
//!   real condvar wait without holding a scheduling turn).
//! * [`SchedHook::on_grant`] — called from the *releasing* thread's
//!   queue pump when a blocked request is granted, with the lock table
//!   held; must not block.
//! * [`SchedHook::on_resume`] — the formerly blocked thread woke up (grant
//!   or timeout) and asks for a turn before continuing.
//! * [`SchedHook::observe`] — record-only events (grants, releases,
//!   deadlock victims, commit/rollback completion) that the history oracle
//!   consumes but that are not scheduling choice points.
//!
//! All methods default to no-ops so the trait stays cheap to implement.

use crate::mode::LockMode;
use crate::name::LockName;
use txview_common::TxnId;

/// A scheduling-relevant event, as seen by a [`SchedHook`].
#[derive(Clone, Debug)]
pub enum SchedEvent {
    /// A transaction is about to request `mode` on `name`.
    LockRequest {
        /// Resource being requested.
        name: LockName,
        /// Requested mode (pre-conversion).
        mode: LockMode,
    },
    /// A request was granted (instantly, as a conversion, or after a wait).
    /// `mode` is the effective held mode (post-conversion supremum).
    LockGranted {
        /// Resource granted.
        name: LockName,
        /// Effective mode now held.
        mode: LockMode,
        /// True if this was an in-place conversion of a held lock.
        converting: bool,
    },
    /// A request could not be granted and is about to wait.
    LockBlocked {
        /// Resource waited on.
        name: LockName,
        /// Target mode of the wait (post-conversion supremum).
        mode: LockMode,
        /// True if this is a conversion wait (queue-jumping).
        converting: bool,
    },
    /// One lock was released (individually or during `release_all`).
    LockReleased {
        /// Resource released.
        name: LockName,
    },
    /// The requester closed a waits-for cycle and aborts.
    DeadlockVictim {
        /// Resource whose request closed the cycle.
        name: LockName,
    },
    /// A lock wait timed out; the requester aborts.
    LockTimeout {
        /// Resource whose wait timed out.
        name: LockName,
    },
    /// Commit processing is about to start (before the commit record).
    CommitStart,
    /// Commit finished: locks released. `commit_lsn` is the version stamp
    /// snapshot readers compare against.
    Committed {
        /// The commit record's LSN (for a transaction that logged nothing,
        /// the log's end: where its Commit would have gone).
        commit_lsn: u64,
    },
    /// Rollback processing is about to start (before the Abort record).
    RollbackStart,
    /// Rollback finished: undo complete, locks released.
    RolledBack,
    /// The committing transaction is about to publish multiversion entries
    /// for the view rows it touched (latch-free version-store publish).
    VersionPublish,
    /// A committer enqueued its commit LSN on the group-commit pipeline
    /// and is about to park until the batch outcome resolves it
    /// (`on_block` event, mirroring [`SchedEvent::LockBlocked`]).
    LogForceWait {
        /// The parked commit record's LSN.
        commit_lsn: u64,
    },
    /// The pipeline resolved a parked committer from the leader's thread
    /// (`on_grant` event): its batch flushed, failed, or it was promoted
    /// to lead the next batch.
    LogForceGrant {
        /// The resolved commit record's LSN.
        commit_lsn: u64,
    },
    /// The group-commit leader finished appending its batch and is about
    /// to sync (yield point). This is the pipelined handoff seam: the
    /// next batch may form and append here while this sync is in flight.
    LeaderSync {
        /// Highest LSN the in-flight sync will cover.
        upto: u64,
    },
    /// The group-commit leader drained its batch and is about to append
    /// it (yield point). While the leader sits here, `leader_active` is
    /// still true — committers arriving in this window park as followers
    /// and are resolved (or promoted) by this leader's round.
    LeaderAppend {
        /// Highest LSN the batch append will cover.
        upto: u64,
    },
    /// A committing transaction is about to flush its cascade queue —
    /// coalesced deltas destined for derived (view-over-view) rows — in
    /// dependency order, *before* its commit record is appended (yield
    /// point). Emitted only when the queue is non-empty, so scenarios
    /// without derived views keep their exact schedule counts.
    CascadeFlush {
        /// Number of coalesced (view, group) entries queued at flush start.
        /// Deeper levels enqueued *during* the flush are not counted.
        entries: u64,
    },
}

/// Callbacks a virtual scheduler implements to serialize and record lock /
/// transaction events. All methods are optional; see the module docs for
/// the contract of each.
pub trait SchedHook: Send + Sync {
    /// A true scheduling choice point: may park the caller until it is
    /// rescheduled. Called *before* the event is performed.
    fn yield_point(&self, _txn: TxnId, _ev: &SchedEvent) {}

    /// Record-only observation; must not park the caller.
    fn observe(&self, _txn: TxnId, _ev: &SchedEvent) {}

    /// The worker driving `txn` is about to enter a real lock wait. Must
    /// mark it blocked, release its turn, and return without parking.
    fn on_block(&self, _txn: TxnId, _ev: &SchedEvent) {}

    /// `txn`'s pending request was granted, from the *releaser's* thread
    /// (which holds lock-manager internals). Must not block.
    fn on_grant(&self, _txn: TxnId, _ev: &SchedEvent) {}

    /// The formerly blocked worker woke (grant or timeout) and requests a
    /// turn before touching shared state again. May park the caller.
    fn on_resume(&self, _txn: TxnId) {}
}
