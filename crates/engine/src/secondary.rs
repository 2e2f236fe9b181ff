//! Secondary indexes on base tables: DDL, DML maintenance, and reads.
//!
//! Entry layout:
//!
//! * **non-unique** — key = `(indexed cols..., pk cols...)`, value = encoded
//!   pk values (the back-probe target, stored redundantly for simple
//!   decoding);
//! * **unique** — key = `(indexed cols...)`, value = encoded pk values.
//!
//! Maintenance mirrors the base row's life cycle (insert → entry insert,
//! delete → entry ghost, update → ghost old + insert new when indexed
//! columns move), uses the same generic logical-undo descriptors the view
//! machinery uses, and feeds the same ghost-cleanup queue.

use crate::catalog::{SecondaryIndexDef, TableDef};
use crate::db::Database;
use crate::schema::SchemaSnapshot;
use txview_btree::Tree;
use txview_common::{Error, Key, Result, Row, Value};
use txview_lock::{LockMode, LockName};
use txview_txn::Transaction;

impl Database {
    /// Create a secondary index on `table` over `cols`, populated from the
    /// existing rows. DDL is quiesced, like view creation.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        cols: &[usize],
        unique: bool,
    ) -> Result<()> {
        let index = self.change_schema(|cat| {
            let t = cat.table(table)?;
            if let Some(c) = cols.iter().find(|&&c| c >= t.schema.arity()) {
                return Err(Error::Schema(format!("index column {c} out of range")));
            }
            let table = t.id;
            let (index, root) = self.create_tree(cat)?;
            let cols = cols.to_vec();
            cat.add_index(SecondaryIndexDef {
                name: name.to_string(),
                table,
                cols,
                unique,
                index,
                root,
            })?;
            Ok(index)
        })?;
        // Populate from the current base rows.
        let s = self.schema();
        let def = &s.catalog.indexes[&index];
        let base = s.catalog.table_by_id(def.table)?;
        let (items, _) = s.tree(base.index)?.scan(None, None, false)?;
        let entries = items.into_iter().map(|item| {
            Ok(entry_for(def, &base.schema, &Row::from_bytes(&item.value)?))
        });
        self.bulk_load(def.index, entries).map_err(|e| match e {
            Error::DuplicateKey(k) => {
                Error::Schema(format!("unique index '{name}' violated at {k}"))
            }
            other => other,
        })?;
        self.checkpoint()?;
        self.persist_catalog()
    }

    /// Maintain all secondary indexes of `table` for one DML statement.
    pub(crate) fn maintain_secondary(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        table: &TableDef,
        new: Option<&Row>,
        old: Option<&Row>,
    ) -> Result<()> {
        for def in s.indexes_on(table.id) {
            let tree = s.tree(def.index)?;
            match (old, new) {
                (None, Some(n)) => self.secondary_insert(txn, def, tree, table, n)?,
                (Some(o), None) => self.secondary_delete(txn, def, tree, table, o)?,
                (Some(o), Some(n)) => {
                    let moved = def.cols.iter().any(|&c| o.get(c) != n.get(c));
                    if moved {
                        self.secondary_delete(txn, def, tree, table, o)?;
                        self.secondary_insert(txn, def, tree, table, n)?;
                    }
                }
                (None, None) => {}
            }
        }
        Ok(())
    }

    fn secondary_insert(
        &self,
        txn: &mut Transaction,
        def: &SecondaryIndexDef,
        tree: &Tree,
        table: &TableDef,
        row: &Row,
    ) -> Result<()> {
        let (key, value) = entry_for(def, &table.schema, row);
        self.locks.acquire(txn.id, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        match tree.get(&key)? {
            // A live entry can only collide on a unique index (the
            // non-unique key embeds the pk, which the base insert already
            // proved fresh).
            Some((false, _)) => {
                Err(Error::DuplicateKey(format!("unique index '{}' at {key:?}", def.name)))
            }
            Some((true, old)) => self.put_entry(txn, tree, def.index, &key, &value, Some(old)),
            None => {
                // Instant insert-intention gap lock: conflicts with any
                // serializable reader holding the target range.
                let gap = self.gap_after(tree, def.index, &key)?;
                self.locks.acquire(txn.id, gap.clone(), LockMode::X)?;
                self.put_entry(txn, tree, def.index, &key, &value, None)?;
                self.locks.release(txn.id, &gap);
                Ok(())
            }
        }
    }

    fn secondary_delete(
        &self,
        txn: &mut Transaction,
        def: &SecondaryIndexDef,
        tree: &Tree,
        table: &TableDef,
        row: &Row,
    ) -> Result<()> {
        let (key, _) = entry_for(def, &table.schema, row);
        self.locks.acquire(txn.id, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        match tree.get(&key)? {
            Some((false, image)) => self.ghost_entry(txn, tree, def.index, &key, image),
            _ => Err(Error::corruption(format!(
                "secondary index '{}' missing entry {key:?}",
                def.name
            ))),
        }
    }

    /// Look up base rows through a secondary index: all live rows whose
    /// indexed columns equal `values`. Takes short S locks on the entries
    /// and the base rows (long for serializable transactions).
    pub fn get_by_index(
        &self,
        txn: &mut Transaction,
        index_name: &str,
        values: &[Value],
    ) -> Result<Vec<Row>> {
        let s = self.schema();
        let def = s.catalog.index(index_name)?;
        let table = s.catalog.table_by_id(def.table)?;
        if values.len() != def.cols.len() {
            return Err(Error::Schema(format!(
                "index '{index_name}' expects {} values",
                def.cols.len()
            )));
        }
        let tree = s.tree(def.index)?;
        let lo = Key::from_values(values);
        let mut out = Vec::new();
        self.locked_scan(txn, tree, Some(&lo), lo.prefix_upper_bound().as_ref(), false, |txn, pk| {
            // Back-probe the base row the entry names.
            out.extend(self.get_row(txn, &table.name, Row::from_bytes(&pk)?.values())?);
            Ok(())
        })?;
        Ok(out)
    }
}

/// Build the (key, value) pair of a secondary-index entry.
pub(crate) fn entry_for(
    def: &SecondaryIndexDef,
    schema: &txview_common::schema::Schema,
    row: &Row,
) -> (Key, Vec<u8>) {
    let mut key_vals: Vec<Value> = def.cols.iter().map(|&c| row.get(c).clone()).collect();
    let pk_vals = schema.pk_values(row);
    if !def.unique {
        key_vals.extend(pk_vals.iter().cloned());
    }
    let key = Key::from_values(&key_vals);
    let value = Row::new(pk_vals).to_bytes();
    (key, value)
}
