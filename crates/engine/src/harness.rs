//! The harness's handle on the engine: verification oracles, quiesced
//! dumps, and the ablation baselines the experiments compare against.
//! None of it is part of the transactional surface; it is reached through
//! [`Database::harness`] so tests, torture and experiments share one
//! definition of "the view is right".
//!
//! Everything here assumes a quiesced database (no concurrent DML).

use crate::catalog::{ViewDef, ViewSource};
use crate::db::{CascadeTrace, Database};
use crate::delta::{fold_derived, row_contribution};
use crate::escrow::{self, apply_insert_merge, encode_view_row, initial_aggs};
use crate::maintain::visible_row;
use crate::schema::SchemaSnapshot;
use crate::secondary::entry_for;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use txview_common::{Error, Key, Result, Row, Value};
use txview_txn::IsolationLevel;
use txview_view::RowDelta;
use txview_wal::record::UndoOp;

/// A view's contents as `group → (COUNT_BIG, aggregates)`.
pub(crate) type Groups = HashMap<Vec<Value>, (i64, Vec<Value>)>;

/// Verification and ablation access to a [`Database`].
#[derive(Clone, Copy)]
pub struct Harness<'a> {
    db: &'a Database,
}

impl Database {
    /// Verification oracles, quiesced dumps and ablation switches.
    pub fn harness(&self) -> Harness<'_> {
        Harness { db: self }
    }

    /// Compute a view's contents from its base table(s) by direct scans
    /// (no locks — callers quiesce or hold object locks). A derived view
    /// recomputes transitively down to base.
    pub(crate) fn compute_view_from_base(
        &self,
        s: &SchemaSnapshot,
        view: &ViewDef,
    ) -> Result<Groups> {
        let mut out = Groups::new();
        match &view.source {
            ViewSource::Derived { parent, .. } => {
                let p = s.catalog.view_by_id(*parent)?;
                let parent_rows = self.compute_view_from_base(s, p)?;
                return fold_derived(view, p, &parent_rows);
            }
            ViewSource::Single { table, group_by } => {
                let t = s.catalog.table_by_id(*table)?;
                for item in s.tree(t.index)?.scan(None, None, false)?.0 {
                    let row = Row::from_bytes(&item.value)?;
                    let group = group_by.iter().map(|&c| row.get(c).clone()).collect();
                    fold_row(view, &mut out, group, &row)?;
                }
            }
            ViewSource::Join { fact, dim, fact_fk_col, dim_group_by } => {
                let dtree = s.tree(s.catalog.table_by_id(*dim)?.index)?;
                let ftree = s.tree(s.catalog.table_by_id(*fact)?.index)?;
                for item in ftree.scan(None, None, false)?.0 {
                    let row = Row::from_bytes(&item.value)?;
                    let dkey = Key::from_values(std::slice::from_ref(row.get(*fact_fk_col)));
                    if let Some((false, dval)) = dtree.get(&dkey)? {
                        let drow = Row::from_bytes(&dval)?;
                        let group = dim_group_by.iter().map(|&c| drow.get(c).clone()).collect();
                        fold_row(view, &mut out, group, &row)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Recompute one group's `(COUNT_BIG, aggregates)` from the base table
    /// — the MIN/MAX retirement fallback. Scoped to a single group so an
    /// extremal delete pays one base scan filtered to its own group, not a
    /// full view rebuild. `None` if no live base row maps to the group.
    /// Single-table sources only: MIN/MAX is rejected on join and derived
    /// views at DDL, so this path can never see them.
    pub(crate) fn compute_group_from_base(
        &self,
        s: &SchemaSnapshot,
        view: &ViewDef,
        base: &crate::catalog::TableDef,
        group: &[Value],
    ) -> Result<Option<(i64, Vec<Value>)>> {
        let ViewSource::Single { group_by, .. } = &view.source else {
            return Err(Error::invalid("group recompute on a non-single-table view"));
        };
        let mut acc = Groups::new();
        for item in s.tree(base.index)?.scan(None, None, false)?.0 {
            let row = Row::from_bytes(&item.value)?;
            if group_by.iter().zip(group).all(|(&c, g)| row.get(c) == g) {
                fold_row(view, &mut acc, group.to_vec(), &row)?;
            }
        }
        Ok(acc.remove(group))
    }

    /// A view's stored visible rows as [`Groups`]; a negative COUNT_BIG is
    /// corruption.
    fn stored_groups(&self, s: &SchemaSnapshot, view: &ViewDef) -> Result<Groups> {
        let ngroup = view.group_types.len();
        let mut out = Groups::new();
        for item in s.tree(view.index)?.scan(None, None, false)?.0 {
            let row = Row::from_bytes(&item.value)?;
            let group: Vec<Value> = row.values()[..ngroup].to_vec();
            let count = row.get(ngroup).as_int()?;
            if count < 0 {
                return Err(Error::corruption(format!(
                    "view '{}' group {group:?} has negative count {count}",
                    view.name
                )));
            }
            if count > 0 {
                out.insert(group, (count, row.values()[ngroup + 1..].to_vec()));
            }
        }
        Ok(out)
    }
}

/// Fold base row `row` into `acc` under `group`, if the view's filter
/// admits it.
fn fold_row(view: &ViewDef, acc: &mut Groups, group: Vec<Value>, row: &Row) -> Result<()> {
    let Some(contrib) = row_contribution(view, row, 1)? else {
        return Ok(());
    };
    let delta = RowDelta { group, count: 1, aggs: contrib };
    match acc.entry(delta.group.clone()) {
        Entry::Occupied(mut e) => {
            let (count, aggs) = e.get_mut();
            let region = escrow::encode_agg_region(*count, aggs);
            let merged = apply_insert_merge(&region, view, &delta)?;
            (*count, *aggs) = escrow::decode_agg_region(&merged, view.aggs.len())?;
        }
        Entry::Vacant(e) => {
            e.insert((1, initial_aggs(view, &delta)?));
        }
    }
    Ok(())
}

impl Harness<'_> {
    /// Verify that a view's stored rows exactly match a recomputation from
    /// base (the correctness spine of every experiment). For derived views
    /// this recomputes *transitively* down to the base tables.
    pub fn verify_view(&self, view_name: &str) -> Result<()> {
        let s = self.db.schema();
        let view = s.catalog.view(view_name)?;
        let expected = self.db.compute_view_from_base(&s, view)?;
        self.check_view_against(&s, view, &expected)
    }

    /// Verify a derived view against its **immediate parent's stored
    /// rows** (not a base recomputation): the one-level fold must match
    /// exactly. Combined with [`Harness::verify_view`] on every level, this
    /// pins blame to a single propagation step when a chain diverges.
    /// Non-derived views fall back to the transitive check.
    pub fn verify_view_from_parent(&self, view_name: &str) -> Result<()> {
        let s = self.db.schema();
        let view = s.catalog.view(view_name)?;
        let ViewSource::Derived { parent, .. } = &view.source else {
            return self.verify_view(view_name);
        };
        let p = s.catalog.view_by_id(*parent)?;
        let expected = fold_derived(view, p, &self.db.stored_groups(&s, p)?)?;
        self.check_view_against(&s, view, &expected)
    }

    /// Compare a view's stored rows against an expected recomputation.
    fn check_view_against(
        &self,
        s: &SchemaSnapshot,
        view: &ViewDef,
        expected: &Groups,
    ) -> Result<()> {
        let name = &view.name;
        let stored = self.db.stored_groups(s, view)?;
        for (group, (count, aggs)) in &stored {
            match expected.get(group) {
                Some((ec, ea)) if ec == count && ea == aggs => {}
                Some((ec, ea)) => {
                    return Err(Error::corruption(format!(
                        "view '{name}' group {group:?}: stored ({count}, {aggs:?}) != expected ({ec}, {ea:?})"
                    )))
                }
                None => {
                    return Err(Error::corruption(format!(
                        "view '{name}' has spurious group {group:?}"
                    )))
                }
            }
        }
        if stored.len() != expected.len() {
            return Err(Error::corruption(format!(
                "view '{name}' has {} visible groups, expected {}",
                stored.len(),
                expected.len()
            )));
        }
        Ok(())
    }

    /// Verify a secondary index against its base table.
    pub fn verify_index(&self, index_name: &str) -> Result<()> {
        let s = self.db.schema();
        let def = s.catalog.index(index_name)?;
        let table = s.catalog.table_by_id(def.table)?;
        let mut expected = std::collections::BTreeMap::new();
        for item in s.tree(table.index)?.scan(None, None, false)?.0 {
            let row = Row::from_bytes(&item.value)?;
            let (key, value) = entry_for(def, &table.schema, &row);
            if expected.insert(key.as_bytes().to_vec(), value).is_some() {
                return Err(Error::corruption(format!(
                    "base rows collide in index '{index_name}'"
                )));
            }
        }
        let (entries, _) = s.tree(def.index)?.scan(None, None, false)?;
        if entries.len() != expected.len() {
            return Err(Error::corruption(format!(
                "index '{index_name}' has {} live entries, expected {}",
                entries.len(),
                expected.len()
            )));
        }
        for e in entries {
            if expected.get(&e.key) != Some(&e.value) {
                return Err(Error::corruption(format!(
                    "index '{index_name}' entry mismatch at {:?}",
                    Key::from_bytes(e.key)
                )));
            }
        }
        Ok(())
    }

    /// Lock-free view dump: all visible rows in key order.
    pub fn dump_view(&self, view_name: &str) -> Result<Vec<Row>> {
        let s = self.db.schema();
        let view = s.catalog.view(view_name)?;
        let mut out = Vec::new();
        for item in s.tree(view.index)?.scan(None, None, false)?.0 {
            out.extend(visible_row(view, &item.value)?);
        }
        Ok(out)
    }

    /// Lock-free table dump: all live rows in key order.
    pub fn dump_table(&self, table: &str) -> Result<Vec<Row>> {
        let s = self.db.schema();
        let (items, _) = s.tree(s.catalog.table(table)?.index)?.scan(None, None, false)?;
        items.into_iter().map(|i| Row::from_bytes(&i.value)).collect()
    }

    /// The version chain of a view row.
    #[allow(clippy::type_complexity)]
    pub fn debug_chain(
        &self,
        view_name: &str,
        group: &[Value],
    ) -> Result<Vec<(u64, bool, Option<crate::versions::DeltaPairs>)>> {
        let index = self.db.schema().catalog.view(view_name)?.index;
        Ok(self.db.versions.debug_chain(index, Key::from_values(group).as_bytes()))
    }

    /// Depth of a view in the dependency graph (0 = base view).
    pub fn view_depth(&self, view_name: &str) -> Result<u32> {
        let s = self.db.schema();
        Ok(s.depth(s.catalog.view(view_name)?.id))
    }

    /// Number of entries waiting for ghost cleanup.
    pub fn ghost_backlog(&self) -> usize {
        self.db.ghost_queue.len()
    }

    /// Ablation toggle: `true` propagates every parent delta to children
    /// immediately (one refresh per DML — the naive baseline the DAG
    /// proptest compares against); `false` (default) coalesces per (view,
    /// group, txn) and flushes once at commit.
    pub fn set_cascade_eager(&self, eager: bool) {
        self.db.cascade_eager.store(eager, Ordering::Relaxed);
    }

    /// Arm the cascade trace: subsequent refreshes record
    /// `(txn, view, group-key)` until [`Harness::take_cascade_trace`].
    pub fn enable_cascade_trace(&self) {
        *self.db.cascade_trace.lock() = Some(Vec::new());
    }

    /// Drain the armed cascade trace (empty if never armed).
    pub fn take_cascade_trace(&self) -> CascadeTrace {
        self.db.cascade_trace.lock().as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Pending (unapplied) delta count of a deferred view.
    pub fn deferred_staleness(&self, view_name: &str) -> Result<u64> {
        let id = self.db.schema().catalog.view(view_name)?.id;
        Ok(*self.db.deferred_pending.lock().get(&id).unwrap_or(&0))
    }

    /// Rebuild a deferred view from base (bulk refresh) — the deferred
    /// baseline immediate maintenance is measured against.
    ///
    /// Delete and rebuild run in *one* user transaction with logged
    /// logical undo, so a crash anywhere inside the refresh rolls the
    /// whole thing back — the view is never left empty-yet-"fresh". The
    /// staleness counter is reset by subtracting the pre-refresh value, so
    /// increments that land during the rebuild are kept.
    pub fn refresh_deferred_view(&self, view_name: &str) -> Result<usize> {
        let db = self.db;
        let s = db.schema();
        let view = s.catalog.view(view_name)?;
        let index = view.index;
        let tree = s.tree(index)?;
        let pre_refresh = *db.deferred_pending.lock().get(&view.id).unwrap_or(&0);
        let rows = db.compute_view_from_base(&s, view)?;
        let n = rows.len();
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        let result = (|| -> Result<()> {
            for item in tree.scan(None, None, true)?.0 {
                let key = Key::from_bytes(item.key.clone());
                let undo = UndoOp::IndexDelete { index, key: item.key, row: item.value };
                db.logged(&mut txn, undo, |ctx, how| tree.remove_record(&key, ctx, how))?;
            }
            for (group, (count, aggs)) in rows {
                let key = Key::from_values(&group);
                let bytes = encode_view_row(&group, count, &aggs)?;
                db.put_entry(&mut txn, tree, index, &key, &bytes, None)?;
            }
            Ok(())
        })();
        if let Err(e) = result {
            let _ = db.rollback(&mut txn);
            return Err(e);
        }
        db.txns.commit(&mut txn)?;
        // Fetch-and-subtract, not zero: DML racing the rebuild keeps its
        // staleness contribution.
        let mut pending = db.deferred_pending.lock();
        let slot = pending.entry(view.id).or_insert(0);
        *slot = slot.saturating_sub(pre_refresh);
        Ok(n)
    }
}
