//! # txview-view
//!
//! The cascading-view substrate: views stacked on views.
//!
//! The paper maintains each indexed view directly from base-table deltas.
//! Real deployments stack views on views (company → user → post → feed),
//! where correctness hinges on applying **exactly one coalesced refresh per
//! (view, group) per transaction, in dependency order, at commit**. Two
//! pieces deliver that contract:
//!
//! * [`graph::ViewGraph`] — the view-dependency DAG: every view is
//!   registered over base tables (depth 0) or over another view (parent
//!   depth + 1), cycles are rejected at registration, and the depth field
//!   *is* the topological order (every parent is strictly shallower than
//!   its children);
//! * [`queue::CascadeQueue`] — the per-transaction coalescing queue: delta
//!   mutations to any node enqueue dirty `(view, group)` entries that merge
//!   commutatively (dedup per transaction), and commit drains them in
//!   ascending depth order so each entry is refreshed exactly once after
//!   every producer above it has flushed;
//! * [`queue::TxnViews`] — everything one transaction owes its views: that
//!   queue plus the view rows it touched (for version publication at
//!   commit). It is a field of the transaction itself, so the engine keeps
//!   no per-transaction registry.
//!
//! The engine owns the flush itself (it is ordinary escrow maintenance,
//! logged with the same `Escrow` undo records as base-driven deltas, so
//! crash recovery and replication replay see cascades as ordinary redo);
//! this crate owns the ordering and dedup semantics, where they can be
//! tested in isolation.

pub mod graph;
pub mod queue;

pub use graph::ViewGraph;
pub use queue::{CascadeQueue, EnqueueOutcome, PendingDelta, Touch, TouchedRows, TxnViews};
