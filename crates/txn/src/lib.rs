//! # txview-txn
//!
//! The transaction manager: user transactions with strict two-phase
//! locking, runtime rollback through the same logical-undo machinery that
//! crash recovery uses, savepoints, system transactions (nested top
//! actions), isolation levels, and fuzzy checkpoints.
//!
//! Responsibilities are deliberately narrow: *which* locks to take for a
//! given operation is the engine's protocol decision; this crate tracks
//! transaction state (log back-chain, in-memory undo list, held locks via
//! the lock manager) and drives commit / rollback / checkpoint.

pub mod manager;
pub mod pipeline;
pub mod txn;

pub use manager::TxnManager;
pub use pipeline::CommitPipeline;
pub use txn::{IsolationLevel, Transaction, TxnState};
