//! # txview-engine
//!
//! The paper's contribution, assembled over the substrates: **indexed views
//! maintained immediately inside user transactions, with escrow locking,
//! logical logging/undo, ghost records, and system transactions** (Graefe &
//! Zwilling, "Transaction support for indexed views", SIGMOD 2004).
//!
//! Public surface:
//!
//! * [`db::Database`] — tables (each a clustered B-tree, its only
//!   index), indexed-view DDL ([`ddl`]), DML with immediate view
//!   maintenance ([`dml`], [`maintain`]), commit/rollback, crash +
//!   recovery, ghost cleanup;
//! * [`harness`] — verification oracles and ablation switches, reached
//!   through [`db::Database::harness`];
//! * [`catalog`] — table and view definitions, the only two kinds it
//!   holds ([`catalog::ViewSpec`]), the aggregate list
//!   ([`catalog::AggSpec`]), filters, join views, the maintenance-mode
//!   switch (escrow vs the X-lock baseline), and its byte format;
//! * [`escrow`] — the commutative-delta machinery: view-row layout, the
//!   aggregate region, delta application, and inverse deltas for undo;
//! * [`read`] — view readers at the three isolation levels (short S locks,
//!   serializable key-range locking, snapshot multiversioning);
//! * [`versions`] — the lightweight commit-LSN version store that lets
//!   snapshot readers ignore in-flight escrow writers.
//!
//! The crate deliberately has **no SQL layer**: the paper is about the
//! transactional machinery underneath, and the workloads drive it through
//! this typed API.

pub mod catalog;
pub mod db;
pub mod ddl;
pub mod delta;
pub mod dml;
pub mod escrow;
pub mod ghosts;
pub mod harness;
pub mod health;
pub mod interleave;
pub mod maintain;
pub mod read;
pub mod repl;
pub(crate) mod schema;
pub mod torture;
pub mod versions;
pub mod watermark;

pub use catalog::{
    AggSpec, CmpOp, MaintenanceMode, Predicate, TableDef, ViewDef, ViewSource, ViewSpec,
};
pub use db::{Database, DbStats, GhostCleanupReport, ResilienceStats};
pub use harness::{FaultParts, Harness};
pub use health::{HealthMonitor, HealthState, HealthStatsSnapshot};
pub use txview_txn::{IsolationLevel, Transaction};
