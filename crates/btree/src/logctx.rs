//! Logging context passed into every mutating B-tree operation.
//!
//! The tree performs the page change and asks the context to describe how
//! it must be logged:
//!
//! * [`OpLog::Update`] — a forward user-transaction operation carrying a
//!   *logical* undo descriptor (the engine supplies it: ghost-the-key,
//!   inverse escrow delta, ...);
//! * [`OpLog::Clr`] — the operation *is* an undo step; it is logged as a
//!   redo-only compensation record chaining `undo_next`;
//! * [`OpLog::System`] — part of a system transaction; the tree supplies a
//!   *physical* inverse so an in-flight crash can back it out. Only this
//!   variant logs an inverse, so only it makes the tree build one, from
//!   the page before the change;
//! * [`OpLog::None`] — unlogged (catalog bootstrap before the log exists).

use txview_common::{Lsn, PageId, TxnId};
use txview_wal::record::{RecordBody, RedoOp, UndoOp};
use txview_wal::LogManager;

/// How one physical page operation should be logged.
#[derive(Clone, Debug)]
pub enum OpLog {
    /// Forward operation of a user transaction with its logical undo.
    Update {
        /// The logical undo descriptor to log with the operation.
        undo: UndoOp,
    },
    /// Compensation (undo step): redo-only, points at the next undo.
    Clr {
        /// Where undo continues after this compensation.
        undo_next: Lsn,
    },
    /// System-transaction operation; physical inverse derived by the tree.
    System,
    /// Not logged.
    None,
}

/// Per-transaction logging handle: appends records, maintaining the
/// back-chain (`prev_lsn`) through `last_lsn`.
pub struct LogCtx<'a> {
    /// The log manager to append to.
    pub log: &'a LogManager,
    /// The owning transaction.
    pub txn: TxnId,
    /// The transaction's previous record LSN (updated on every append).
    pub last_lsn: &'a mut Lsn,
}

impl LogCtx<'_> {
    /// Append `body` for this transaction, advancing the back-chain.
    pub fn append(&mut self, body: RecordBody) -> Lsn {
        let lsn = self.log.append(self.txn, *self.last_lsn, body);
        *self.last_lsn = lsn;
        lsn
    }

    /// Close a system transaction: append its Commit, or nothing when it
    /// logged nothing (a transaction's first record opens its bracket, so
    /// there is none to close). Returns the Commit's LSN, or null.
    pub fn commit(&mut self) -> Lsn {
        if self.last_lsn.is_null() {
            return Lsn::NULL;
        }
        self.append(RecordBody::Commit)
    }

    /// Log one physical page operation according to `how`; returns the LSN
    /// to stamp on the page (null when unlogged). `inverse` is the op's
    /// physical inverse: only [`OpLog::System`] logs one, and it must
    /// bring it.
    pub fn log_op(&mut self, page: PageId, redo: RedoOp, inverse: Option<RedoOp>, how: &OpLog) -> Lsn {
        match how {
            OpLog::Update { undo } => self.append(RecordBody::Update {
                page,
                redo,
                undo: undo.clone(),
            }),
            OpLog::Clr { undo_next } => self.append(RecordBody::Clr {
                page,
                redo,
                undo_next: *undo_next,
            }),
            OpLog::System => self.append(RecordBody::Update {
                page,
                redo,
                undo: UndoOp::Page { page, op: inverse.expect("a system operation logs its inverse") },
            }),
            OpLog::None => Lsn::NULL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_chains_prev_lsn() {
        let log = LogManager::in_memory();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn: TxnId(1), last_lsn: &mut last };
        assert!(ctx.commit().is_null(), "nothing logged: no Commit either");
        let a = ctx.append(RecordBody::Abort);
        let b = ctx.commit();
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, a);
        assert_eq!(recs[1].prev_lsn, a);
        assert_eq!(recs[1].lsn, b);
        assert_eq!(recs[1].body, RecordBody::Commit);
        assert_eq!(last, b);
    }

    #[test]
    fn log_op_variants() {
        let log = LogManager::in_memory();
        let mut last = Lsn::NULL;
        let mut ctx = LogCtx { log: &log, txn: TxnId(1), last_lsn: &mut last };
        let redo = RedoOp::SlotRemove { idx: 0 };
        let inv = RedoOp::SlotInsert { idx: 0, bytes: vec![1] };
        let l1 = ctx.log_op(PageId(1), redo.clone(), None, &OpLog::Update { undo: UndoOp::None });
        assert!(!l1.is_null());
        let l2 = ctx.log_op(PageId(1), redo.clone(), Some(inv), &OpLog::System);
        assert!(l2 > l1);
        let l3 = ctx.log_op(PageId(1), redo.clone(), None, &OpLog::Clr { undo_next: l1 });
        assert!(l3 > l2);
        let l4 = ctx.log_op(PageId(1), redo, None, &OpLog::None);
        assert!(l4.is_null());
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 3);
        assert!(matches!(
            recs[1].body,
            RecordBody::Update { undo: UndoOp::Page { .. }, .. }
        ));
        assert!(matches!(recs[2].body, RecordBody::Clr { .. }));
    }
}
