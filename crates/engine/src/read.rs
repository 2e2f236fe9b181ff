//! Readers: view lookups/scans and base-table reads at the three isolation
//! levels.
//!
//! * **ReadCommitted** — short S key locks: the reader waits out in-flight
//!   escrow/X writers of each row it touches, then releases immediately.
//! * **Serializable** — long S key locks *plus* key-range (gap) locks held
//!   to commit: the read range is phantom-protected and conflicts with
//!   escrow writers, exactly the paper's "stable aggregates" guarantee.
//! * **Snapshot** — no locks at all: versions as of the transaction's
//!   snapshot LSN. Escrow writers are never blocked by snapshot readers.

use crate::catalog::ViewDef;
use crate::db::Database;
use crate::maintain::{materialize_view_row, visible_row};
use txview_common::{Error, Key, Lsn, Result, Row, Value};
use txview_btree::Tree;
use txview_lock::{LockMode, LockName};
use txview_txn::{IsolationLevel, Transaction};

impl Database {
    /// Point lookup of a view row by its group values. Returns the full
    /// view row `[group..., COUNT_BIG, aggs...]` if the group is visible.
    pub fn view_lookup(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        group: &[Value],
    ) -> Result<Option<Row>> {
        let s = self.schema();
        let view = s.catalog.view(view_name)?;
        let key = Key::from_values(group);
        let tree = s.tree(view.index)?;
        if txn.isolation == IsolationLevel::Snapshot {
            return self.snapshot_view_row(view, tree, key.as_bytes(), txn.snapshot_lsn);
        }

        let name = LockName::key(view.index, key.as_bytes());
        self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
        let out = match tree.get(&key)? {
            Some((false, bytes)) => visible_row(view, &bytes)?,
            _ => None,
        };
        match txn.isolation {
            IsolationLevel::ReadCommitted => {
                self.locks.release(txn.id, &name);
            }
            IsolationLevel::Serializable => {
                // Phantom protection for a missing/invisible group: lock the
                // gap the group would occupy.
                if out.is_none() {
                    let gap = self.gap_after(tree, view.index, &key)?;
                    self.locks.acquire(txn.id, gap, LockMode::S)?;
                }
            }
            IsolationLevel::Snapshot => unreachable!("handled above"),
        }
        Ok(out)
    }

    /// Range scan of a view over group keys in `[lo, hi_exclusive)` (both
    /// optional). Returns visible rows in key order.
    pub fn view_scan(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        lo: Option<&[Value]>,
        hi_exclusive: Option<&[Value]>,
    ) -> Result<Vec<Row>> {
        let s = self.schema();
        let view = s.catalog.view(view_name)?;
        let lo_key = lo.map(Key::from_values);
        let hi_key = hi_exclusive.map(Key::from_values);

        let tree = s.tree(view.index)?;
        if txn.isolation == IsolationLevel::Snapshot {
            let (lo, hi) = (lo_key.as_ref(), hi_key.as_ref());
            let (items, _) = tree.scan(lo, hi, false)?;
            return self.resolve_scanned(view, items, lo, hi, txn.snapshot_lsn);
        }

        let mut out = Vec::new();
        self.locked_scan(txn, tree, lo_key.as_ref(), hi_key.as_ref(), |bytes| {
            out.extend(visible_row(view, &bytes)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Locking range scan of `tree` over `[lo, hi)`: enumerate the keys,
    /// ghosts too, then S-lock each one and hand its live value, re-read
    /// under the lock and so settled, to `visit`. Below Serializable each
    /// lock is released at once; Serializable also locks the gap before
    /// each key and the one past the range, so the range is
    /// phantom-protected until commit.
    pub(crate) fn locked_scan(
        &self,
        txn: &mut Transaction,
        tree: &Tree,
        lo: Option<&Key>,
        hi: Option<&Key>,
        mut visit: impl FnMut(Vec<u8>) -> Result<()>,
    ) -> Result<()> {
        let index = tree.index_id();
        let (items, next_key) = tree.scan(lo, hi, true)?;
        let serializable = txn.isolation == IsolationLevel::Serializable;
        for item in items {
            let name = LockName::key(index, item.key.clone());
            self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
            if serializable {
                self.locks.acquire(txn.id, LockName::gap(index, item.key.clone()), LockMode::S)?;
            }
            if let Some((false, bytes)) = tree.get(&Key::from_bytes(item.key))? {
                visit(bytes)?;
            }
            if !serializable {
                self.locks.release(txn.id, &name);
            }
        }
        if serializable {
            // Close the range: lock the gap beyond the last key.
            let end = match next_key {
                Some(k) => LockName::gap(index, k),
                None => LockName::EndGap(index),
            };
            self.locks.acquire(txn.id, end, LockMode::S)?;
        }
        Ok(())
    }

    /// Point lookup of a base-table row by primary key. Base tables are not
    /// versioned in this reproduction; snapshot reads of base rows degrade
    /// to read-committed.
    pub fn get_row(&self, txn: &mut Transaction, table: &str, pk: &[Value]) -> Result<Option<Row>> {
        let s = self.schema();
        let def = s.catalog.table(table)?;
        let key = Key::from_values(pk);
        let tree = s.tree(def.index)?;
        let name = LockName::key(def.index, key.as_bytes());
        self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
        let out = match tree.get(&key)? {
            Some((false, bytes)) => Some(Row::from_bytes(&bytes)?),
            _ => None,
        };
        if txn.isolation != IsolationLevel::Serializable {
            self.locks.release(txn.id, &name);
        }
        Ok(out)
    }

    /// Convenience: the aggregate values of one group — `(COUNT_BIG,
    /// aggs...)` — or `None` if the group is invisible.
    pub fn view_aggregates(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        group: &[Value],
    ) -> Result<Option<(i64, Vec<Value>)>> {
        let ngroup = self.schema().catalog.view(view_name)?.group_types.len();
        let Some(row) = self.view_lookup(txn, view_name, group)? else {
            return Ok(None);
        };
        Ok(Some((row.get(ngroup).as_int()?, row.values()[ngroup + 1..].to_vec())))
    }

    /// Derived AVG of a SUM-backed aggregate, following the paper's rule:
    /// AVG is not stored as a quotient (it does not commute); the stored
    /// value is the running SUM ([`crate::catalog::AggSpec::Avg`] or a
    /// plain SUM column) and the quotient `SUM / COUNT_BIG` is computed at
    /// read time from the same row, at the transaction's isolation level.
    /// `agg_idx` selects the column among the view's aggregates.
    ///
    /// Returns `Value::Null` when the group is empty or invisible — SQL
    /// semantics: the average over zero rows is NULL, not 0 and not an
    /// absent row (a serializable reader still gap-locks the miss, so the
    /// NULL is stable).
    pub fn view_avg(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        group: &[Value],
        agg_idx: usize,
    ) -> Result<Value> {
        let s = self.schema();
        let view = s.catalog.view(view_name)?;
        if agg_idx >= view.aggs.len() {
            return Err(Error::Schema(format!(
                "view '{view_name}' has {} aggregates",
                view.aggs.len()
            )));
        }
        if !view.aggs[agg_idx].is_escrow_capable() {
            return Err(Error::Schema("AVG derives only from SUM aggregates".into()));
        }
        // A visible row counts at least one base row.
        let ngroup = view.group_types.len();
        match self.view_lookup(txn, view_name, group)? {
            Some(row) => {
                let count = row.get(ngroup).as_int()?;
                Ok(Value::Float(row.get(ngroup + 1 + agg_idx).as_float()? / count as f64))
            }
            None => Ok(Value::Null),
        }
    }

    /// Snapshot read of one view row at snapshot LSN `s`: reconstruct from
    /// the version chain, or read directly when the row was never modified.
    /// Returns the row iff the group is visible at `s`.
    fn snapshot_view_row(
        &self,
        view: &ViewDef,
        tree: &Tree,
        kb: &[u8],
        s: Lsn,
    ) -> Result<Option<Row>> {
        let mat = |image, pairs: &[_]| materialize_view_row(view, kb, image, pairs);
        let image = match self.versions.read_at(view.index, kb, s, &mat)? {
            Some(image) => image,
            None => {
                // No chain: the physical image should be stable — but a
                // writer may create the chain and modify the row between
                // our check and the read. Ask again afterwards; a chain
                // that appeared means the bytes we read may carry an
                // uncommitted delta, so the chain decides.
                let phys = match tree.get(&Key::from_bytes(kb.to_vec()))? {
                    Some((false, v)) => Some(v),
                    _ => None,
                };
                self.versions.read_at(view.index, kb, s, &mat)?.unwrap_or(phys)
            }
        };
        image.map_or(Ok(None), |bytes| visible_row(view, &bytes))
    }

    /// Merge physical rows `items`, scanned from `[lo, hi)` of the view's
    /// tree *before this call*, with the version chains of that range. A
    /// key with a chain takes the chain's image at `s`; a key without one
    /// takes the scanned bytes. That order is what makes the second case
    /// safe: a writer seeds the chain before it first modifies a row and
    /// chains are never removed, so "no chain now" means nobody had touched
    /// the row when the scan, earlier still, read it — the single-key rule
    /// of [`Database::snapshot_view_row`], with the directory visit doubling
    /// as the re-check.
    fn resolve_scanned(
        &self,
        view: &ViewDef,
        items: Vec<txview_btree::ScanItem>,
        lo: Option<&Key>,
        hi: Option<&Key>,
        s: Lsn,
    ) -> Result<Vec<Row>> {
        let mat = |kb: &[u8], image, pairs: &[_]| materialize_view_row(view, kb, image, pairs);
        let chains =
            self.versions.range_at(view.index, lo.map(Key::as_bytes), hi.map(Key::as_bytes), s, &mat)?;
        let mut out = Vec::with_capacity(items.len().max(chains.len()));
        let mut push = |image: Option<Vec<u8>>| -> Result<()> {
            if let Some(bytes) = image {
                out.extend(visible_row(view, &bytes)?);
            }
            Ok(())
        };
        let mut chains = chains.into_iter().peekable();
        for item in items {
            // Chains sorting before the next physical row: rows that are
            // not (or no longer) in the tree.
            while let Some((_, image)) = chains.next_if(|(k, _)| *k < item.key) {
                push(image)?;
            }
            match chains.next_if(|(k, _)| *k == item.key) {
                Some((_, image)) => push(image)?,
                None => push(Some(item.value))?,
            }
        }
        for (_, image) in chains {
            push(image)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggSpec, MaintenanceMode, Predicate, ViewSource, ViewSpec};
    use txview_common::row;
    use txview_common::schema::{Column, Schema};
    use txview_common::value::ValueType;

    /// The scan-item shortcut of a Snapshot scan, with the writers placed by
    /// hand on either side of the tree scan. Rows of a view built over
    /// loaded data have no chains, so every group starts on the shortcut.
    #[test]
    fn scanned_bytes_yield_to_a_chain_that_appears_around_the_scan() {
        let db = Database::new_in_memory(256);
        let int = |name| Column::new(name, ValueType::Int);
        let schema = Schema::new(vec![int("id"), int("branch"), int("balance")], vec![0]).unwrap();
        let table = db.create_table("accounts", schema).unwrap();
        let mut load = db.begin(IsolationLevel::ReadCommitted);
        for branch in 0..4i64 {
            db.insert(&mut load, "accounts", row![branch, branch, 100 * branch]).unwrap();
        }
        db.commit(&mut load).unwrap();
        db.create_indexed_view(ViewSpec {
            name: "by_branch".into(),
            source: ViewSource::Single { table, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
        })
        .unwrap();
        let schema = db.schema();
        let view = schema.catalog.view("by_branch").unwrap();
        let as_loaded: Vec<Row> = (0..4i64).map(|b| row![b, 1i64, 100 * b]).collect();
        let chained = |branch: i64| {
            db.versions.has_chain(view.index, Key::from_values(&[Value::Int(branch)]).as_bytes())
        };

        let mut reader = db.begin(IsolationLevel::Snapshot);
        // Before the scan: a writer seeds branch 1's chain and adds its
        // delta to the row, uncommitted — the scan will read dirty bytes.
        let mut early = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut early, "accounts", row![10i64, 1i64, 5i64]).unwrap();
        let (items, _) = schema.tree(view.index).unwrap().scan(None, None, false).unwrap();
        assert_eq!(Row::from_bytes(&items[1].value).unwrap(), row![1i64, 2i64, 105i64]);
        // After the scan, before the directory is consulted: a writer
        // seeds branch 2's chain, changes the row and commits past the
        // reader's snapshot.
        let mut late = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut late, "accounts", row![11i64, 2i64, 7i64]).unwrap();
        db.commit(&mut late).unwrap();

        let rows = db.resolve_scanned(view, items, None, None, reader.snapshot_lsn).unwrap();
        assert_eq!(rows, as_loaded, "neither the in-flight 5 nor the later 7");
        assert!(chained(1) && chained(2), "both writers' rows resolved through their chains");
        assert!(!chained(0) && !chained(3), "the untouched rows came from the scan items");

        // The public path agrees, and a later snapshot sees what committed.
        assert_eq!(db.view_scan(&mut reader, "by_branch", None, None).unwrap(), as_loaded);
        db.commit(&mut reader).unwrap();
        db.commit(&mut early).unwrap();
        let mut fresh = db.begin(IsolationLevel::Snapshot);
        let now = db.view_scan(&mut fresh, "by_branch", None, None).unwrap();
        assert_eq!(now[1], row![1i64, 2i64, 105i64]);
        assert_eq!(now[2], row![2i64, 2i64, 207i64]);
        db.commit(&mut fresh).unwrap();
    }
}
