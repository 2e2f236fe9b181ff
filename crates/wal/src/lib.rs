//! # txview-wal
//!
//! ARIES-style write-ahead logging, specialised with exactly the machinery
//! the reproduced paper (Graefe & Zwilling, SIGMOD 2004) requires:
//!
//! * **physiological redo** — every page modification is logged as a slot-
//!   level operation ([`record::RedoOp`]) that is re-applied iff
//!   `pageLSN < recordLSN`, so redo is idempotent even for escrow
//!   increments, which are logged as deltas ([`record::RedoOp::SlotAdd`])
//!   and added exactly once, in LSN order;
//! * **logical undo** — escrow deltas and B-tree key operations carry an
//!   [`record::UndoOp`] descriptor that is undone *logically* (inverse
//!   delta / ghosting the key) through a resource-manager callback, because
//!   physical before-images are wrong once concurrent increments on the
//!   same record have committed in between;
//! * **compensation log records** (CLRs) chaining `undo_next`, so rollback
//!   and crash-undo never undo an undo;
//! * **system transactions** (nested top actions) for structure
//!   modifications: short, redo-logged, physically undone if caught
//!   in-flight by a crash, and never undone once committed — even if the
//!   user transaction that triggered them rolls back;
//! * **fuzzy checkpoints** recording the dirty-page table and `scan_from`,
//!   the byte offset restart reads from — at or before the first record
//!   of every open bracket and every dirty page's recLSN;
//! * the classic **analysis / redo / undo** recovery passes, reading the
//!   log from the master checkpoint's `scan_from` only.

pub mod fault;
pub mod log;
pub mod record;
pub mod recovery;

pub use fault::FaultLogStore;
pub use log::{FileLogStore, LogManager, LogStore, MemLogStore};
pub use record::{LogRecord, RecordBody, RecordRun, RedoOp, UndoOp, ValueDelta};
pub use recovery::{recover, redo_record, RecoveryReport, UndoHandler};
