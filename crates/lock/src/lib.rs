//! # txview-lock
//!
//! The hierarchical lock manager, including the mode at the heart of the
//! reproduced paper: **E (escrow / increment) locks**.
//!
//! Increment operations on SUM/COUNT columns commute, so concurrent
//! transactions may hold E locks *on the same view row* simultaneously —
//! this is what lets immediate view maintenance scale past the hot-row
//! bottleneck that plain X locking creates. E is incompatible with S, U and
//! X: readers still see stable values, and a transaction that wants to
//! *read* a row it incremented must convert E → X.
//!
//! Also provided: intent modes (IS/IX/SIX) for object/key hierarchies,
//! update locks (U), key and gap (key-range) lock names for phantom
//! protection, FIFO-fair wait queues with conversion priority, a waits-for
//! cycle detector (requester aborts on cycle), and lock statistics that the
//! experiment harness reports. All of it lives in one lock table under one
//! mutex (DESIGN §10).

pub mod hook;
pub mod manager;
pub mod mode;
pub mod name;

pub use hook::{SchedEvent, SchedHook};
pub use manager::LockManager;
pub use mode::LockMode;
pub use name::LockName;
