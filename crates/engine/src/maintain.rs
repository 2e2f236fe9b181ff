//! Immediate view maintenance — the paper's protocol — plus the version
//! publication and logical undo it relies on.
//!
//! Every DML statement on a base table computes, per dependent view, a
//! [`RowDelta`] and applies it *inside the same user transaction*, through
//! one path (`Database::apply`):
//!
//! * existing group row, all-SUM view, escrow mode → **E lock** on the view
//!   row key + in-place commutative delta (concurrent transactions touch
//!   the same hot row simultaneously); logged with an `Escrow` logical-undo
//!   descriptor;
//! * existing group row, X-lock baseline (or MIN/MAX view) → **X lock**,
//!   full-row rewrite where needed;
//! * missing group row → **X lock** on the key + instant-duration X gap
//!   lock (phantom protection), insert of a fresh row whose undo is the
//!   *inverse delta* — not record removal — because concurrently committed
//!   escrow increments may have piled onto the row by rollback time (the
//!   group come/go anomaly);
//! * decrement to zero → the row becomes *logically absent* (visibility is
//!   `COUNT_BIG > 0`); it is queued for physical removal by a ghost-cleanup
//!   **system transaction** that takes an instant X lock (skipping rows any
//!   transaction still depends on).
//!
//! Where the delta comes from depends on the view's source: a single-table
//! view projects the base row, a join view probes the dimension, and a
//! derived view receives its parent's delta projected through the cascade
//! queue at commit.

use crate::catalog::{AggSpec, TableDef, ViewDef, ViewSource};
use crate::db::Database;
use crate::delta::{derived_delta, join_delta, single_table_delta, update_deltas};
use crate::escrow::{self, apply_insert_merge, encode_view_row};
use crate::schema::SchemaSnapshot;
use std::sync::atomic::Ordering;
use txview_btree::{LogCtx, OpLog, Tree};
use txview_common::{Error, IndexId, Key, Lsn, ObjectId, Result, Row, TxnId, Value, ViewId};
use txview_lock::{LockMode, LockName, SchedEvent};
use txview_txn::Transaction;
use txview_view::{EnqueueOutcome, RowDelta, Touch, TouchedRows, TxnViews};
use txview_wal::record::{UndoOp, ValueDelta};
use txview_wal::recovery::UndoHandler;

/// What applying one delta did to its view row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Applied {
    /// The delta was folded into the stored row.
    InPlace,
    /// The MIN/MAX fallback recomputed the whole group from the base table,
    /// which already holds the statement's rewritten row.
    Recomputed,
}

impl Database {
    /// Maintain the views of table `base` for a DML that inserted `new`
    /// and/or removed `old` (update = both), in ascending view id order.
    pub(crate) fn maintain(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        base: &TableDef,
        new: Option<&Row>,
        old: Option<&Row>,
    ) -> Result<()> {
        for view in s.views_on(base.id) {
            let deltas: Vec<RowDelta> = match &view.source {
                ViewSource::Single { .. } => match (old, new) {
                    (Some(o), Some(n)) => update_deltas(view, o, n)?,
                    (Some(o), None) => single_table_delta(view, o, -1)?.into_iter().collect(),
                    (None, Some(n)) => single_table_delta(view, n, 1)?.into_iter().collect(),
                    (None, None) => vec![],
                },
                ViewSource::Join { dim, fact_fk_col, dim_group_by, .. } => {
                    let mut out = Vec::new();
                    for (row, sign) in [(old, -1i64), (new, 1i64)] {
                        if let Some(r) = row {
                            if let Some(group) =
                                self.probe_dim_group(txn, s, *dim, *fact_fk_col, dim_group_by, r)?
                            {
                                out.extend(join_delta(view, r, group, sign)?);
                            }
                        }
                    }
                    out
                }
                // Never listed: the cascade queue maintains derived views.
                ViewSource::Derived { .. } => continue,
            };
            if view.deferred {
                // Staleness = unapplied view-row deltas, not DML statements:
                // a filtered-out row contributes 0, a group-moving update 2.
                let pending = deltas.iter().filter(|d| !d.is_noop()).count() as u64;
                if pending > 0 {
                    *self.deferred_pending.lock().entry(view.id).or_insert(0) += pending;
                }
                continue;
            }
            // A same-group update on a MIN/MAX view arrives as a
            // (delete, insert) pair. The base row is rewritten before
            // maintenance runs, so if the delete half retires an extremum
            // and recomputes the group from base, the recomputation already
            // includes the *new* value — applying the insert half on top
            // would double-count it.
            let paired_update =
                deltas.len() == 2 && deltas[0].group == deltas[1].group && deltas[0].count < 0;
            for (i, delta) in deltas.iter().enumerate() {
                let applied = self.apply(txn, s, view, Some(base), &delta.key(), delta)?;
                if applied == Applied::Recomputed && paired_update && i == 0 {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Resolve a fact row's group values by probing the dimension table
    /// (short S lock on the dim row: it must not move under us).
    fn probe_dim_group(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        dim: ObjectId,
        fact_fk_col: usize,
        dim_group_by: &[usize],
        fact_row: &Row,
    ) -> Result<Option<Vec<Value>>> {
        let d = s.catalog.table_by_id(dim)?;
        let key = Key::from_values(std::slice::from_ref(fact_row.get(fact_fk_col)));
        let name = LockName::key(d.index, key.as_bytes());
        self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
        let out = match s.tree(d.index)?.get(&key)? {
            Some((false, value)) => {
                let row = Row::from_bytes(&value)?;
                Some(dim_group_by.iter().map(|&c| row.get(c).clone()).collect())
            }
            _ => None, // inner-join semantics: unmatched fact rows drop out
        };
        self.locks.release(txn.id, &name);
        Ok(out)
    }

    /// Apply one [`RowDelta`] to the view row `key` (the delta's group,
    /// encoded once by the caller) — the heart of the protocol. `base` is
    /// `None` for derived views (cascade applies): they are all-SUM by
    /// construction, so the MIN/MAX recompute that needs the base table is
    /// unreachable.
    fn apply(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        view: &ViewDef,
        base: Option<&TableDef>,
        key: &Key,
        delta: &RowDelta,
    ) -> Result<Applied> {
        if delta.is_noop() {
            return Ok(Applied::InPlace);
        }
        let kb = key.as_bytes();
        let tree = s.tree(view.index)?;
        self.locks.acquire(txn.id, LockName::Object(view.object), LockMode::IX)?;
        let additive = view.aggs.iter().all(AggSpec::is_escrow_capable);

        // Gap lock taken when this transaction materializes a new group row
        // (insert-intention: conflicts with serializable range readers).
        let mut pending_gap: Option<LockName> = None;
        loop {
            if !tree.contains(key)? {
                if delta.count < 0 {
                    return Err(Error::corruption(format!(
                        "negative delta for missing group {key:?} in view '{}'",
                        view.name
                    )));
                }
                // The paper's trick: the new group row is created *invisible*
                // (COUNT_BIG = 0) by a system transaction that commits and
                // releases immediately — the user transaction then only ever
                // needs an E lock, so concurrent transactions can pile onto
                // a group one of them just created.
                self.ensure_group_row(view, tree, key, &delta.group)?;
                self.versions.ensure_base(view.index, kb, None);
                if pending_gap.is_none() {
                    let gap = self.gap_after(tree, view.index, key)?;
                    self.locks.acquire(txn.id, gap.clone(), LockMode::X)?;
                    pending_gap = Some(gap);
                }
                continue;
            }
            let mode = if view.is_escrow() && additive { LockMode::E } else { LockMode::X };
            self.locks.acquire(txn.id, LockName::key(view.index, kb), mode)?;
            // Re-check under the lock (ghost cleanup may have removed it).
            if tree.contains(key)? {
                break;
            }
        }
        self.safeguard_base_version(view, tree, key)?;
        let applied = if additive {
            let pairs = self.apply_additive(txn, view, tree, key, delta)?;
            note_additive(&mut txn.views.touched, view.index, kb, &pairs)?;
            self.obs.escrow_applies.inc();
            Applied::InPlace
        } else {
            let base = base.ok_or_else(|| {
                Error::invalid(format!("MIN/MAX maintenance of '{}' needs a base table", view.name))
            })?;
            // The X lock taken above keeps ghost cleanup off the row.
            let (_, current) = tree.get(key)?.ok_or_else(|| {
                Error::corruption(format!("view '{}' lost group {key:?} under X", view.name))
            })?;
            let applied = self.apply_extremum(txn, s, view, base, tree, key, &current, delta)?;
            note_exclusive(&mut txn.views.touched, view.index, kb);
            self.obs.minmax_rewrites.inc();
            applied
        };
        if let Some(gap) = pending_gap {
            self.locks.release(txn.id, &gap);
        }
        // Propagate to children. (MIN/MAX views cannot have children —
        // derived DDL requires an all-SUM parent — so a recomputed group
        // never skips a child.)
        self.cascade_children(txn, s, view, delta)?;
        Ok(applied)
    }

    /// Escrow-capable path: add the delta's pairs to the row in place,
    /// logged as the pairs themselves (redo adds them, undo their
    /// inverses). Returns the pairs.
    fn apply_additive(
        &self,
        txn: &mut Transaction,
        view: &ViewDef,
        tree: &Tree,
        key: &Key,
        delta: &RowDelta,
    ) -> Result<Vec<(u16, ValueDelta)>> {
        let region_len = escrow::agg_region_len(view.aggs.len());
        let pairs = delta.to_undo_pairs();
        let undo =
            UndoOp::Escrow { index: view.index, key: key.as_bytes().to_vec(), deltas: pairs.clone() };
        let region =
            self.logged(txn, undo, |ctx, how| tree.add_to_value(key, region_len, &pairs, ctx, how))?;
        if escrow::region_count(&region)? == 0 {
            if view.eager_group_delete {
                self.eager_delete_group(txn, view, tree, key)?;
            } else {
                self.enqueue_ghost(view.index, key.as_bytes().to_vec());
            }
        }
        Ok(pairs)
    }

    /// E7 ablation: delete an emptied group row inside the user transaction.
    /// Requires converting the row lock to X — the source of the deadlocks
    /// this experiment measures — and re-checking the count under it.
    fn eager_delete_group(
        &self,
        txn: &mut Transaction,
        view: &ViewDef,
        tree: &Tree,
        key: &Key,
    ) -> Result<()> {
        let kb = key.as_bytes().to_vec();
        self.locks.acquire(txn.id, LockName::key(view.index, kb.clone()), LockMode::X)?;
        let Some((_, value)) = tree.get(key)? else {
            return Ok(());
        };
        if row_visible(view, &value)? {
            return Ok(()); // somebody legitimately resurrected it before our X
        }
        let undo = UndoOp::IndexDelete { index: view.index, key: kb.clone(), row: value };
        self.logged(txn, undo, |ctx, how| tree.remove_record(key, ctx, how))?;
        note_exclusive(&mut txn.views.touched, view.index, &kb);
        Ok(())
    }

    /// MIN/MAX (X-lock) path: full-row rewrite with physical-image undo;
    /// deletes that may retire the extremum recompute the group from base.
    #[allow(clippy::too_many_arguments)]
    fn apply_extremum(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        view: &ViewDef,
        base: &TableDef,
        tree: &Tree,
        key: &Key,
        current: &[u8],
        delta: &RowDelta,
    ) -> Result<Applied> {
        let region_off = escrow::agg_region_start(current.len(), view.aggs.len())?;
        let mut applied = Applied::InPlace;
        let region = &current[region_off..];
        let new_value = if delta.count < 0 && escrow::delete_retires_extremum(region, view, delta)?
        {
            // The departing row equals a stored extremum: the paper's
            // fallback — recompute this one group from base under an S
            // object lock (serializes with writers; deadlocks are detected
            // and retried upstream). The crash probe sits between the lock
            // grant and the view-row rewrite, the window the crash matrix
            // exercises. A group that vanished from base stores the escrow
            // invariant (count 0, zero sums) so a later resurrection's
            // insert-merge starts from clean aggregates.
            self.locks.acquire(txn.id, LockName::Object(base.id), LockMode::S)?;
            self.log.probe_point("view.minmax.recompute");
            self.obs.minmax_recomputes.inc();
            applied = Applied::Recomputed;
            let (count, aggs) = self
                .compute_group_from_base(s, view, base, &delta.group)?
                .unwrap_or_else(|| (0, escrow::zero_aggs(view)));
            encode_view_row(&delta.group, count, &aggs)?
        } else {
            // An insert merges; a non-extremal delete leaves every stored
            // MIN/MAX standing and folds the additive aggregates in place
            // under the row X lock already held — no base-table access.
            let merged = if delta.count >= 0 {
                apply_insert_merge(region, view, delta)?
            } else {
                escrow::apply_delete_keep_extrema(region, view, delta)?
            };
            let mut out = current.to_vec();
            out[region_off..].copy_from_slice(&merged);
            out
        };
        self.rewrite_entry(txn, tree, view.index, key, current, &new_value)?;
        if escrow::decode_agg_region(&new_value[region_off..], view.aggs.len())?.0 == 0 {
            self.enqueue_ghost(view.index, key.as_bytes().to_vec());
        }
        Ok(applied)
    }

    /// Materialize an invisible (COUNT_BIG = 0) group row in a system
    /// transaction. Losing a creation race to another transaction is fine.
    fn ensure_group_row(
        &self,
        view: &ViewDef,
        tree: &Tree,
        key: &Key,
        group: &[Value],
    ) -> Result<()> {
        let bytes = encode_view_row(group, 0, &escrow::zero_aggs(view))?;
        match self.txns.system(|id, last| {
            let mut ctx = LogCtx { log: &self.log, txn: id, last_lsn: last };
            tree.insert(key, &bytes, &mut ctx, &OpLog::System)
        }) {
            Ok(()) => {
                self.obs.group_creates.inc();
                Ok(())
            }
            Err(Error::DuplicateKey(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Record the pre-image version the first time any transaction touches
    /// a view row (so snapshot readers never see in-flight increments).
    /// The read happens inside the version store's critical section: a
    /// concurrent escrow holder that raced past its own safeguard cannot
    /// have modified the row yet, so the captured image is committed-clean.
    fn safeguard_base_version(&self, view: &ViewDef, tree: &Tree, key: &Key) -> Result<()> {
        self.versions.ensure_base_with(view.index, key.as_bytes(), || match tree.get(key)? {
            Some((false, value)) if row_visible(view, &value)? => Ok(Some(value)),
            _ => Ok(None),
        })
    }

    /// Publish the committed versions of the view rows transaction `tid`
    /// touched. Runs in the commit's pre-release hook: the commit record is
    /// appended and the row locks are still held.
    pub(crate) fn publish_versions(
        &self,
        tid: TxnId,
        touched: TouchedRows,
        commit_lsn: Lsn,
    ) -> Result<()> {
        if touched.is_empty() {
            return Ok(());
        }
        // Interleaving-explorer yield: the latch-free version-store publish
        // is a scheduling point.
        if let Some(h) = self.locks.hook() {
            h.yield_point(tid, &SchedEvent::VersionPublish);
        }
        let s = self.schema();
        // One horizon for the whole commit: it only ever rises, so an
        // earlier reading folds less, never too much.
        let horizon = self.watermark.fold_horizon(&self.log);
        for ((index, kb), touch) in touched {
            let view = view_of(&s, index)?;
            let mat = |image, pairs: &[_]| materialize_view_row(view, &kb, image, pairs);
            match touch {
                Touch::Additive(pairs) => {
                    self.versions.publish_delta(index, &kb, commit_lsn, pairs, horizon, &mat)?;
                }
                Touch::Exclusive => {
                    let value = match s.tree(index)?.get(&Key::from_bytes(kb.clone()))? {
                        Some((false, v)) => Some(v),
                        _ => None,
                    };
                    self.versions.publish_full(index, &kb, commit_lsn, value, horizon, &mat)?;
                }
            }
        }
        Ok(())
    }

    // ---- cascades ----------------------------------------------------------

    /// Project an applied delta onto the view's children. Coalesced mode
    /// enqueues into the transaction's cascade queue (merged per
    /// `(view, group)`, drained at commit); eager mode recurses through
    /// [`Database::apply`] immediately — the naive baseline.
    fn cascade_children(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        view: &ViewDef,
        delta: &RowDelta,
    ) -> Result<()> {
        let eager = self.cascade_eager.load(Ordering::Relaxed);
        for projection in child_deltas(s, view, delta) {
            let (child, depth, projected) = projection?;
            let key = projected.key();
            if eager {
                self.apply(txn, s, child, None, &key, &projected)?;
                self.note_refresh(txn.id, child.id, key.as_bytes());
                continue;
            }
            let outcome = txn.views.cascades.enqueue(depth, child.id, key.into_bytes(), projected)?;
            self.obs.cascade_enqueues.inc();
            if outcome == EnqueueOutcome::Coalesced {
                self.obs.cascade_coalesce_hits.inc();
            }
        }
        Ok(())
    }

    /// Count one applied cascade refresh (and trace it, when armed).
    fn note_refresh(&self, txn: TxnId, view: ViewId, kb: &[u8]) {
        self.obs.cascade_refreshes.inc();
        if let Some(trace) = self.cascade_trace.lock().as_mut() {
            trace.push((txn, view, kb.to_vec()));
        }
    }

    /// Drain the transaction's cascade queue in dependency order: ascending
    /// `(depth, view, group)` — applying a level-*d* entry enqueues its own
    /// children at depth > *d*, which this same drain consumes. Runs in the
    /// pre-append commit hook, so every cascade log record precedes the
    /// commit record (ordinary redo for recovery and replication).
    pub(crate) fn flush_cascades(&self, txn: &mut Transaction) -> Result<()> {
        let entries = txn.views.cascades.len();
        if entries == 0 {
            return Ok(());
        }
        // Yield point, guarded on a non-empty queue so cascade-free
        // scenarios keep their exact schedule counts.
        if let Some(h) = self.locks.hook() {
            h.yield_point(txn.id, &SchedEvent::CascadeFlush { entries: entries as u64 });
        }
        let s = self.schema();
        let mut refreshed = 0u64;
        let mut last_depth: Option<u32> = None;
        // Pop one entry at a time (not a drained snapshot): applying an
        // entry re-enters `cascade_children`, which must land grandchildren
        // in this same queue.
        while let Some((depth, view_id, kb, delta)) = txn.views.cascades.pop_first() {
            if last_depth.is_some_and(|d| depth > d) {
                // Named crash point between DAG levels: the torture
                // probe sweep crashes here to prove mid-cascade atomicity.
                self.log.probe_point("view.cascade.level");
            }
            last_depth = Some(depth);
            if delta.is_noop() {
                continue; // retracted down to nothing by a savepoint undo
            }
            let view = s.catalog.view_by_id(view_id)?;
            let key = Key::from_bytes(kb);
            self.apply(txn, &s, view, None, &key, &delta)?;
            self.note_refresh(txn.id, view_id, key.as_bytes());
            refreshed += 1;
        }
        self.obs.cascade_flush_entries.record(refreshed);
        if let Some(d) = last_depth {
            self.obs.cascade_flush_depth.record(u64::from(d));
        }
        Ok(())
    }

    /// A savepoint rollback's view bookkeeping: retract the escrow deltas of
    /// the undone span from the version-publication accumulator and from
    /// the still-queued cascade work, newest first. It only merges into
    /// in-memory accumulators, so it runs before the page undo; the undo
    /// itself ([`UndoHandler`]) then only compensates pages.
    pub(crate) fn retract_savepoint_span(&self, txn: &mut Transaction, sp: usize) -> Result<()> {
        let s = self.schema();
        let (undo, views) = txn.undo_since(sp);
        for entry in undo.iter().rev() {
            if let UndoOp::Escrow { index, key, deltas } = &entry.op {
                retract_escrow(&s, views, *index, key, deltas)?;
            }
        }
        Ok(())
    }
}

/// Retract one escrow delta on view row `key` of `index` from `views`.
fn retract_escrow(
    s: &SchemaSnapshot,
    views: &mut TxnViews,
    index: IndexId,
    key: &[u8],
    deltas: &[(u16, ValueDelta)],
) -> Result<()> {
    let inverse: Vec<(u16, ValueDelta)> = deltas.iter().map(|(p, d)| (*p, d.inverse())).collect();
    if let Some(Touch::Additive(acc)) = views.touched.get_mut(&(index, key.to_vec())) {
        escrow::merge_pairs(acc, &inverse)?;
    }
    let view = view_of(s, index)?;
    if s.children(view.id).next().is_none() {
        return Ok(());
    }
    // Retract the delta's projection from still-queued child entries, so
    // the later commit flush applies only surviving work. Views with
    // children are all-SUM by DDL validation, so the undo pairs rebuild a
    // complete forward delta.
    let group = Key::from_bytes(key.to_vec()).decode_values()?;
    let retracted = RowDelta::from_pairs(group, escrow::zero_deltas(view), deltas)?.inverse();
    for projection in child_deltas(s, view, &retracted) {
        let (child, depth, projected) = projection?;
        views.cascades.retract(depth, child.id, projected.key().as_bytes(), &projected)?;
    }
    Ok(())
}

/// The view stored in index `index`.
fn view_of(s: &SchemaSnapshot, index: IndexId) -> Result<&ViewDef> {
    s.view_at(index).ok_or_else(|| Error::NotFound(format!("view for index {}", index.0)))
}

/// `delta` of `view` projected onto each derived child, with the child's
/// depth; projections that change nothing are skipped.
fn child_deltas<'s>(
    s: &'s SchemaSnapshot,
    view: &'s ViewDef,
    delta: &'s RowDelta,
) -> impl Iterator<Item = Result<(&'s ViewDef, u32, RowDelta)>> + 's {
    let depth = s.depth(view.id) + 1;
    s.children(view.id).filter_map(move |child| match derived_delta(child, view, delta) {
        Ok(projected) if projected.is_noop() => None,
        projected => Some(projected.map(|p| (child, depth, p))),
    })
}

impl UndoHandler for Database {
    /// Logical undo executor: runs during runtime rollback AND crash
    /// recovery. Every page change is logged as a CLR chaining `undo_next`.
    fn undo(&self, txn: TxnId, op: &UndoOp, undo_next: Lsn, chain: &mut Lsn) -> Result<()> {
        let how = OpLog::Clr { undo_next };
        let (index, key) = match op {
            UndoOp::IndexInsert { index, key }
            | UndoOp::IndexDelete { index, key, .. }
            | UndoOp::IndexUpdate { index, key, .. }
            | UndoOp::IndexPatch { index, key, .. }
            | UndoOp::Escrow { index, key, .. } => (*index, key),
            UndoOp::None | UndoOp::Page { .. } => return Ok(()),
        };
        let schema = self.schema();
        let tree = schema.tree(index)?;
        let k = Key::from_bytes(key.clone());
        let mut ctx = LogCtx { log: &self.log, txn, last_lsn: chain };
        match op {
            UndoOp::IndexInsert { .. } => {
                // Undo a base-row insert: ghost it (X lock held by owner).
                tree.set_ghost(&k, true, &mut ctx, &how)?;
                self.enqueue_ghost(index, key.clone());
            }
            UndoOp::IndexDelete { row, .. } => {
                // Undo a base-row delete: resurrect the ghost.
                match tree.set_ghost(&k, false, &mut ctx, &how) {
                    Ok(_) => {}
                    // Defensive: re-insert from the logged image.
                    Err(Error::NotFound(_)) => tree.insert(&k, row, &mut ctx, &how)?,
                    Err(e) => return Err(e),
                }
            }
            UndoOp::IndexUpdate { old_row, .. } => {
                tree.update_value(&k, old_row, &mut ctx, &how)?;
            }
            UndoOp::IndexPatch { off, old, .. } => {
                tree.patch_value(&k, *off as usize, old, &mut ctx, &how)?;
            }
            UndoOp::Escrow { deltas, .. } => {
                let region_len = escrow::agg_region_len(view_of(&schema, index)?.aggs.len());
                let inverse: Vec<_> = deltas.iter().map(|&(p, d)| (p, d.inverse())).collect();
                let region = tree.add_to_value(&k, region_len, &inverse, &mut ctx, &how)?;
                if escrow::region_count(&region)? == 0 {
                    self.enqueue_ghost(index, key.clone());
                }
            }
            UndoOp::None | UndoOp::Page { .. } => {}
        }
        Ok(())
    }
}

/// Accumulate a transaction's net commutative delta for a view row.
fn note_additive(
    touched: &mut TouchedRows,
    index: IndexId,
    kb: &[u8],
    pairs: &[(u16, ValueDelta)],
) -> Result<()> {
    match touched.entry((index, kb.to_vec())).or_insert_with(|| Touch::Additive(Vec::new())) {
        Touch::Additive(acc) => escrow::merge_pairs(acc, pairs),
        Touch::Exclusive => Ok(()), // exclusive image already covers it
    }
}

/// Mark a view row as exclusively rewritten by a transaction.
fn note_exclusive(touched: &mut TouchedRows, index: IndexId, kb: &[u8]) {
    touched.insert((index, kb.to_vec()), Touch::Exclusive);
}

/// The version-store materializer for the row of `view` with key `kb`:
/// applies forward escrow pairs to a (possibly absent) row image, patching
/// the aggregate region — the row's tail — in place. An absent row
/// materializes from the invisible zero row of its group, the only case
/// that decodes the key.
pub(crate) fn materialize_view_row(
    view: &ViewDef,
    kb: &[u8],
    image: Option<Vec<u8>>,
    pairs: &[(u16, ValueDelta)],
) -> Result<Option<Vec<u8>>> {
    let mut value = match image {
        Some(bytes) => bytes,
        None => {
            let group = Key::from_bytes(kb.to_vec()).decode_values()?;
            encode_view_row(&group, 0, &escrow::zero_aggs(view))?
        }
    };
    let off = escrow::agg_region_start(value.len(), view.aggs.len())?;
    escrow::apply_forward_pairs(&mut value[off..], view.aggs.len(), pairs)?;
    Ok(Some(value))
}

/// Decode an encoded view row iff it is visible (COUNT_BIG > 0).
/// Catalog-free, and the only decode a reader pays per row.
pub(crate) fn visible_row(view: &ViewDef, value: &[u8]) -> Result<Option<Row>> {
    let row = Row::from_bytes(value)?;
    let count = row.get(view.group_types.len()).as_int()?;
    Ok((count > 0).then_some(row))
}

/// Is an encoded view row visible? See [`visible_row`].
pub(crate) fn row_visible(view: &ViewDef, value: &[u8]) -> Result<bool> {
    visible_row(view, value).map(|row| row.is_some())
}
