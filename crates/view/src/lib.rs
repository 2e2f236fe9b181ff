//! # txview-view
//!
//! The cascading-view substrate: views stacked on views.
//!
//! The paper maintains each indexed view directly from base-table deltas.
//! Real deployments stack views on views (company → user → post → feed),
//! where correctness hinges on applying **exactly one coalesced refresh per
//! (view, group) per transaction, in dependency order, at commit**. This
//! crate holds the delta algebra and what one transaction owes its views:
//!
//! * [`queue::RowDelta`] — the one in-memory view-row delta, from the
//!   statement that computes it to the commit that flushes it: one
//!   addition (`merge`), one inverse, one zero test, and the sparse
//!   `(position, delta)` pairs that are its log form (`to_undo_pairs`,
//!   read back by `from_pairs`);
//! * [`queue::CascadeQueue`] — the per-transaction coalescing queue: delta
//!   mutations to any view enqueue dirty `(view, group)` entries keyed by
//!   the view's depth, which merge commutatively (dedup per transaction),
//!   and commit drains them in ascending depth order so each entry is
//!   refreshed exactly once after every producer above it has flushed;
//! * [`queue::TxnViews`] — that queue plus the view rows the transaction
//!   touched (for version publication at commit). It is a field of the
//!   transaction itself, so the engine keeps no per-transaction registry.
//!
//! The dependency graph itself — each view's derived children and depth —
//! is part of the engine's schema snapshot, derived from the catalog: a
//! derived view has exactly one parent, so a base-sourced view has depth 0
//! and a derived view its parent's depth plus one.
//!
//! The engine owns the flush itself (it is ordinary escrow maintenance,
//! logged with the same `Escrow` undo records as base-driven deltas, so
//! crash recovery and replication replay see cascades as ordinary redo);
//! this crate owns the ordering and dedup semantics, where they can be
//! tested in isolation.

pub mod queue;

pub use queue::{
    CascadeQueue, EnqueueOutcome, PendingDelta, RowDelta, Touch, TouchedRows, TxnViews,
};
