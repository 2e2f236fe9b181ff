//! Per-transaction state.

use txview_common::{Lsn, TxnId};
use txview_view::TxnViews;
use txview_wal::record::UndoOp;

/// Isolation level of a user transaction.
///
/// * `ReadCommitted` — short S locks (released right after the read); no
///   phantom protection. Writers are unaffected.
/// * `Serializable` — long S locks plus key-range (gap) locks: readers of a
///   view range conflict with escrow writers of rows in that range, which
///   is exactly the paper's "serializable readers see stable aggregates".
/// * `Snapshot` — reads go to the version chain as of the transaction's
///   snapshot LSN; readers neither block nor are blocked by escrow writers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsolationLevel {
    /// Short read locks.
    ReadCommitted,
    /// Long read locks + key-range locks.
    Serializable,
    /// Multiversion reads at the snapshot LSN.
    Snapshot,
}

/// Lifecycle state of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnState {
    /// Running; operations allowed.
    Active,
    /// Commit record durable, locks released.
    Committed,
    /// Fully rolled back, locks released.
    Aborted,
}

/// One entry of the in-memory undo list: the logical undo descriptor of a
/// forward operation plus the back-chain position (`undo_next`) a CLR for
/// it must carry.
#[derive(Clone, Debug)]
pub struct UndoEntry {
    /// Logical undo descriptor (as logged in the Update record).
    pub op: UndoOp,
    /// The transaction's `last_lsn` *before* the forward operation — i.e.
    /// where undo continues after this entry is compensated.
    pub undo_next: Lsn,
}

/// A user transaction.
///
/// The engine threads `&mut Transaction` through every operation; the
/// borrow discipline makes a transaction single-threaded by construction,
/// as in the system the paper describes (concurrency comes from many
/// transactions, not from parallelism inside one).
pub struct Transaction {
    /// Transaction id (allocated by the log manager).
    pub id: TxnId,
    /// Isolation level for reads.
    pub isolation: IsolationLevel,
    /// LSN of this transaction's most recent log record.
    pub last_lsn: Lsn,
    /// Snapshot point for `IsolationLevel::Snapshot` reads.
    pub snapshot_lsn: Lsn,
    /// Lifecycle state.
    pub state: TxnState,
    /// In-memory undo list (runtime rollback); crash rollback uses the log.
    pub(crate) undo: Vec<UndoEntry>,
    /// Accumulated lock-acquisition time (µs, or ticks in deterministic
    /// runs). The engine adds to this around lock calls; commit folds it
    /// into the manager's per-phase histograms.
    pub phase_acquire_us: u64,
    /// Accumulated view-maintenance time (µs or ticks), same protocol.
    pub phase_maintain_us: u64,
    /// What this transaction owes its views (touched rows, pending
    /// cascade work), settled once at commit.
    pub views: TxnViews,
}

impl Transaction {
    /// Record the logical undo information of a forward operation.
    /// `undo_next` must be the transaction's `last_lsn` from *before* the
    /// operation was logged.
    pub fn push_undo(&mut self, op: UndoOp, undo_next: Lsn) {
        debug_assert_eq!(self.state, TxnState::Active);
        if !matches!(op, UndoOp::None) {
            self.undo.push(UndoEntry { op, undo_next });
        }
    }

    /// Number of undoable operations currently recorded.
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// An opaque savepoint token (position in the undo list).
    pub fn savepoint(&self) -> usize {
        self.undo.len()
    }

    /// The undo entries a rollback to `savepoint` would compensate (oldest
    /// first), beside the view state they may have to be retracted from.
    pub fn undo_since(&mut self, savepoint: usize) -> (&[UndoEntry], &mut TxnViews) {
        (self.undo.get(savepoint..).unwrap_or_default(), &mut self.views)
    }

    /// True iff still active.
    pub fn is_active(&self) -> bool {
        self.state == TxnState::Active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Transaction {
        Transaction {
            id: TxnId(1),
            isolation: IsolationLevel::ReadCommitted,
            last_lsn: Lsn::NULL,
            snapshot_lsn: Lsn::NULL,
            state: TxnState::Active,
            undo: Vec::new(),
            phase_acquire_us: 0,
            phase_maintain_us: 0,
            views: TxnViews::default(),
        }
    }

    #[test]
    fn push_undo_skips_none() {
        let mut t = fresh();
        t.push_undo(UndoOp::None, Lsn(1));
        assert_eq!(t.undo_len(), 0);
        t.push_undo(
            UndoOp::IndexInsert { index: txview_common::IndexId(1), key: vec![1] },
            Lsn(1),
        );
        assert_eq!(t.undo_len(), 1);
    }

    #[test]
    fn savepoint_is_a_position() {
        let mut t = fresh();
        let sp0 = t.savepoint();
        t.push_undo(
            UndoOp::IndexInsert { index: txview_common::IndexId(1), key: vec![1] },
            Lsn(1),
        );
        let sp1 = t.savepoint();
        assert_eq!(sp0, 0);
        assert_eq!(sp1, 1);
    }
}
