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

use crate::db::{visible_row, Database};
use txview_common::{Error, Key, Result, Row, Value};
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
        let view = self.catalog.read().view(view_name)?.clone();
        let key = Key::from_values(group);
        if txn.isolation == IsolationLevel::Snapshot {
            return self.snapshot_view_row(&view, key.as_bytes(), txn.snapshot_lsn);
        }

        let tree = self.tree(view.index)?;
        let name = LockName::key(view.index, key.as_bytes());
        self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
        let out = match tree.get(&key)? {
            Some((false, bytes)) => visible_row(&view, &bytes)?,
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
                    let gap = match tree.next_geq(&key.successor())? {
                        Some((next, _)) => LockName::gap(view.index, next),
                        None => LockName::EndGap(view.index),
                    };
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
        let view = self.catalog.read().view(view_name)?.clone();
        let lo_key = lo.map(Key::from_values);
        let hi_key = hi_exclusive.map(Key::from_values);

        if txn.isolation == IsolationLevel::Snapshot {
            return self.snapshot_view_rows(&view, lo_key.as_ref(), hi_key.as_ref(), txn.snapshot_lsn);
        }

        // Locking scans: enumerate physical keys first, then lock + re-read
        // each (values observed under the S lock are settled).
        let tree = self.tree(view.index)?;
        let (items, next_key) = tree.scan(lo_key.as_ref(), hi_key.as_ref(), true)?;
        let serializable = txn.isolation == IsolationLevel::Serializable;
        let mut out = Vec::new();
        for item in items {
            let name = LockName::key(view.index, item.key.clone());
            self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
            if serializable {
                self.locks
                    .acquire(txn.id, LockName::gap(view.index, item.key.clone()), LockMode::S)?;
            }
            let key = Key::from_bytes(item.key.clone());
            if let Some((false, bytes)) = tree.get(&key)? {
                out.extend(visible_row(&view, &bytes)?);
            }
            if !serializable {
                self.locks.release(txn.id, &name);
            }
        }
        if serializable {
            // Close the range: lock the gap beyond the last key.
            let end = match next_key {
                Some(k) => LockName::gap(view.index, k),
                None => LockName::EndGap(view.index),
            };
            self.locks.acquire(txn.id, end, LockMode::S)?;
        }
        Ok(out)
    }

    /// Point lookup of a base-table row by primary key. Base tables are not
    /// versioned in this reproduction; snapshot reads of base rows degrade
    /// to read-committed.
    pub fn get_row(&self, txn: &mut Transaction, table: &str, pk: &[Value]) -> Result<Option<Row>> {
        let def = self.catalog.read().table(table)?.clone();
        let key = Key::from_values(pk);
        let tree = self.tree(def.index)?;
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

    /// Full scan of a base table (S object lock; long for serializable).
    pub fn scan_table(&self, txn: &mut Transaction, table: &str) -> Result<Vec<Row>> {
        let def = self.catalog.read().table(table)?.clone();
        let tree = self.tree(def.index)?;
        let name = LockName::Object(def.id);
        self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
        let (items, _) = tree.scan(None, None, false)?;
        let rows = items
            .into_iter()
            .map(|i| Row::from_bytes(&i.value))
            .collect::<Result<Vec<_>>>()?;
        if txn.isolation != IsolationLevel::Serializable {
            self.locks.release(txn.id, &name);
        }
        Ok(rows)
    }

    /// Convenience: the aggregate values of one group — `(COUNT_BIG,
    /// aggs...)` — or `None` if the group is invisible.
    pub fn view_aggregates(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        group: &[Value],
    ) -> Result<Option<(i64, Vec<Value>)>> {
        let view = self.catalog.read().view(view_name)?.clone();
        match self.view_lookup(txn, view_name, group)? {
            None => Ok(None),
            Some(row) => {
                let ngroup = view.group_types.len();
                let count = row.get(ngroup).as_int()?;
                let aggs = (0..view.aggs.len())
                    .map(|i| row.get(ngroup + 1 + i).clone())
                    .collect();
                Ok(Some((count, aggs)))
            }
        }
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
    /// absent row (a serializable reader still gap-locks the miss through
    /// `view_aggregates`, so the NULL is stable).
    pub fn view_avg(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        group: &[Value],
        agg_idx: usize,
    ) -> Result<Value> {
        let view = self.catalog.read().view(view_name)?.clone();
        if agg_idx >= view.aggs.len() {
            return Err(Error::Schema(format!(
                "view '{view_name}' has {} aggregates",
                view.aggs.len()
            )));
        }
        if !view.aggs[agg_idx].is_escrow_capable() {
            return Err(Error::Schema("AVG derives only from SUM aggregates".into()));
        }
        match self.view_aggregates(txn, view_name, group)? {
            Some((count, aggs)) if count > 0 => {
                Ok(Value::Float(aggs[agg_idx].as_float()? / count as f64))
            }
            _ => Ok(Value::Null),
        }
    }

    /// A transaction reading a row it has escrow-incremented must convert
    /// E → X (it cannot know concurrent increments). This helper makes the
    /// conversion explicit for callers that need read-back semantics.
    pub fn view_lookup_for_update(
        &self,
        txn: &mut Transaction,
        view_name: &str,
        group: &[Value],
    ) -> Result<Option<Row>> {
        let view = self.catalog.read().view(view_name)?.clone();
        let key = Key::from_values(group);
        let name = LockName::key(view.index, key.as_bytes());
        self.locks.acquire(txn.id, name, LockMode::X)?;
        let tree = self.tree(view.index)?;
        match tree.get(&key)? {
            Some((false, bytes)) => visible_row(&view, &bytes),
            _ => Ok(None),
        }
    }

    /// Quiesced, lock-free view dump (tests and verification): all visible
    /// rows in key order.
    pub fn dump_view(&self, view_name: &str) -> Result<Vec<Row>> {
        let view = self.catalog.read().view(view_name)?.clone();
        let tree = self.tree(view.index)?;
        let (items, _) = tree.scan(None, None, false)?;
        let mut out = Vec::new();
        for item in items {
            out.extend(visible_row(&view, &item.value)?);
        }
        Ok(out)
    }

    /// Quiesced, lock-free table dump (tests): all live rows in key order.
    pub fn dump_table(&self, table: &str) -> Result<Vec<Row>> {
        let def = self.catalog.read().table(table)?.clone();
        let tree = self.tree(def.index)?;
        let (items, _) = tree.scan(None, None, false)?;
        items.into_iter().map(|i| Row::from_bytes(&i.value)).collect()
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
        let view = db.catalog.read().view("by_branch").unwrap().clone();
        let as_loaded: Vec<Row> = (0..4i64).map(|b| row![b, 1i64, 100 * b]).collect();
        let chained = |branch: i64| {
            db.versions.has_chain(view.index, Key::from_values(&[Value::Int(branch)]).as_bytes())
        };

        let mut reader = db.begin(IsolationLevel::Snapshot);
        // Before the scan: a writer seeds branch 1's chain and adds its
        // delta to the row, uncommitted — the scan will read dirty bytes.
        let mut early = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut early, "accounts", row![10i64, 1i64, 5i64]).unwrap();
        let (items, _) = db.tree(view.index).unwrap().scan(None, None, false).unwrap();
        assert_eq!(Row::from_bytes(&items[1].value).unwrap(), row![1i64, 2i64, 105i64]);
        // After the scan, before the directory is consulted: a writer
        // seeds branch 2's chain, changes the row and commits past the
        // reader's snapshot.
        let mut late = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut late, "accounts", row![11i64, 2i64, 7i64]).unwrap();
        db.commit(&mut late).unwrap();

        let rows = db.resolve_scanned(&view, items, None, None, reader.snapshot_lsn).unwrap();
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
