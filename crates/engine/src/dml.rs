//! Transactions and DML: begin/commit/rollback, and insert, delete and
//! update of base rows through one logged write path.
//!
//! Every undoable page change a user transaction makes — base rows and
//! view rows — goes through `Database::logged`:
//! the operation's log record carries its logical undo descriptor, and the
//! same descriptor is pushed on the transaction's undo list.

use crate::catalog::TableDef;
use crate::db::Database;
use crate::health::HealthState;
use crate::schema::SchemaSnapshot;
use std::sync::atomic::Ordering;
use std::time::Duration;
use txview_btree::{LogCtx, OpLog, Tree};
use txview_common::{Error, IndexId, Key, Lsn, Result, Row, Value};
use txview_lock::{LockMode, LockName};
use txview_txn::{IsolationLevel, Transaction};
use txview_wal::record::UndoOp;

impl Database {
    // ---- transactions ----------------------------------------------------

    /// Begin a user transaction. Snapshot transactions get their snapshot
    /// point from the commit watermark (every commit at or below it has
    /// fully published its versions).
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let mut txn = self.txns.begin(isolation);
        if isolation == IsolationLevel::Snapshot {
            txn.snapshot_lsn = self.watermark.begin_snapshot(&self.log);
        }
        txn
    }

    /// Deregister a finished snapshot transaction.
    fn release_snapshot(&self, txn: &Transaction) {
        if txn.isolation == IsolationLevel::Snapshot {
            self.watermark.end_snapshot(txn.snapshot_lsn);
        }
    }

    /// Commit: publishes multiversion entries of touched view rows (while
    /// locks are still held), forces the commit record, releases locks.
    ///
    /// Write transactions force the log (durability of the ack); pure
    /// readers commit no-force — they have nothing to redo, so skipping
    /// the flush is sound *and* lets reads finish while the engine is
    /// degraded to read-only (the write path may be dead).
    pub fn commit(&self, txn: &mut Transaction) -> Result<Lsn> {
        if self.health.state() == HealthState::Fenced {
            return Err(Error::Fenced { reason: self.health.reason() });
        }
        let ticket = self.watermark.begin_commit(&self.log);
        let result = self.txns.commit_with_hooks(
            txn,
            |txn| {
                // Flush coalesced derived-view deltas in dependency order
                // *before* the commit record: the cascade's log records sit
                // ahead of the Commit, so recovery and replication replay
                // see them as ordinary redo.
                self.flush_cascades(txn)?;
                // Force is computed after the flush so cascade work
                // upgrades an otherwise no-force commit.
                Ok(txn.undo_len() > 0 || !txn.views.touched.is_empty())
            },
            |txn, commit_lsn| {
                self.watermark.set_lsn(ticket, commit_lsn);
                self.publish_versions(txn.id, std::mem::take(&mut txn.views.touched), commit_lsn)
            },
        );
        self.watermark.end_commit(ticket);
        if result.is_ok() {
            self.release_snapshot(txn);
        }
        self.note_commit_result(result, "commit flush")
    }

    /// Roll back completely (logical undo through the engine, CLRs logged).
    pub fn rollback(&self, txn: &mut Transaction) -> Result<()> {
        // What the transaction owed its views dies with it: pending cascade
        // work was never applied, so there is nothing to undo.
        txn.views = Default::default();
        let result = self.txns.rollback(txn, self);
        if result.is_ok() {
            self.release_snapshot(txn);
        }
        result
    }

    /// Partial rollback to a savepoint taken with
    /// [`Transaction::savepoint`]: retract the undone span's escrow deltas
    /// from what the transaction owes its views, then undo its pages.
    pub fn rollback_to_savepoint(&self, txn: &mut Transaction, sp: usize) -> Result<()> {
        self.retract_savepoint_span(txn, sp)?;
        self.txns.rollback_to_savepoint(txn, sp, self)
    }

    /// Run `body` in a fresh transaction, committing on success and rolling
    /// back + retrying (up to `retries`) on deadlock/timeout/degradation.
    /// Between attempts it sleeps the deterministic backoff configured with
    /// [`Database::set_txn_backoff`] (default: none — tight retry); the
    /// attempts land in [`crate::db::ResilienceStats`].
    pub fn run_txn<R>(
        &self,
        isolation: IsolationLevel,
        retries: usize,
        mut body: impl FnMut(&mut Transaction) -> Result<R>,
    ) -> Result<R> {
        let backoff = *self.txn_backoff.lock();
        let mut attempt = 0;
        loop {
            self.txn_attempts.fetch_add(1, Ordering::Relaxed);
            let mut txn = self.begin(isolation);
            let result = body(&mut txn).and_then(|r| self.commit(&mut txn).map(|_| r));
            let e = match result {
                Ok(r) => return Ok(r),
                Err(e) => e,
            };
            if txn.is_active() {
                self.rollback(&mut txn)?;
            }
            if !e.is_retryable() || attempt >= retries {
                return Err(e);
            }
            attempt += 1;
            self.txn_retries.fetch_add(1, Ordering::Relaxed);
            let delay = backoff.delay_micros(attempt as u32);
            if delay > 0 {
                self.txn_backoff_micros.fetch_add(delay, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(delay));
            }
        }
    }

    // ---- the write path ------------------------------------------------

    /// The one logged write of a user transaction: `write` runs under a log
    /// context whose records carry `undo`, which is then pushed on the
    /// transaction's undo list (`UndoOp::None` logs without an undo entry).
    pub(crate) fn logged<T>(
        &self,
        txn: &mut Transaction,
        undo: UndoOp,
        write: impl FnOnce(&mut LogCtx<'_>, &OpLog) -> Result<T>,
    ) -> Result<T> {
        let prev = txn.last_lsn;
        let how = OpLog::Update { undo };
        let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
        let out = write(&mut ctx, &how)?;
        if let OpLog::Update { undo } = how {
            txn.push_undo(undo, prev);
        }
        Ok(out)
    }

    /// Write a new entry `key → value`, or revive the ghost whose image is
    /// `ghost`. A revival is two undoable steps, so rollback restores both
    /// the old image and the ghost flag (a plain "re-ghost" undo would leak
    /// the new value into a later resurrection).
    pub(crate) fn put_entry(
        &self,
        txn: &mut Transaction,
        tree: &Tree,
        index: IndexId,
        key: &Key,
        value: &[u8],
        ghost: Option<Vec<u8>>,
    ) -> Result<()> {
        let kb = key.as_bytes().to_vec();
        if let Some(old_row) = ghost {
            self.rewrite_entry(txn, tree, index, key, &old_row, value)?;
            let undo = UndoOp::IndexInsert { index, key: kb };
            self.logged(txn, undo, |ctx, how| tree.set_ghost(key, false, ctx, how))?;
        } else {
            let undo = UndoOp::IndexInsert { index, key: kb };
            self.logged(txn, undo, |ctx, how| tree.insert(key, value, ctx, how))?;
        }
        Ok(())
    }

    /// Replace the value `old` of entry `key` with `new` in one logged
    /// write. When the length is unchanged only the changed byte range is
    /// logged — redo a slot patch, undo the old bytes at the same offset —
    /// and when no byte changed, nothing is. Otherwise the whole value is
    /// logged, with the whole old value as its undo.
    pub(crate) fn rewrite_entry(
        &self,
        txn: &mut Transaction,
        tree: &Tree,
        index: IndexId,
        key: &Key,
        old: &[u8],
        new: &[u8],
    ) -> Result<()> {
        let kb = key.as_bytes().to_vec();
        if old.len() != new.len() {
            let undo = UndoOp::IndexUpdate { index, key: kb, old_row: old.to_vec() };
            return self.logged(txn, undo, |ctx, how| tree.update_value(key, new, ctx, how));
        }
        let differs = |(a, b): (&u8, &u8)| a != b;
        let Some(first) = old.iter().zip(new).position(differs) else {
            return Ok(());
        };
        let end = old.len() - old.iter().rev().zip(new.iter().rev()).position(differs).unwrap_or(0);
        let off = u16::try_from(first).map_err(|_| Error::invalid("value offset over 64 KiB"))?;
        let undo = UndoOp::IndexPatch { index, key: kb, off, old: old[first..end].to_vec() };
        self.logged(txn, undo, |ctx, how| tree.patch_value(key, first, &new[first..end], ctx, how))
    }

    /// Logically delete the live entry `key` (its bytes are `image`): ghost
    /// it and queue it for cleanup.
    pub(crate) fn ghost_entry(
        &self,
        txn: &mut Transaction,
        tree: &Tree,
        index: IndexId,
        key: &Key,
        image: Vec<u8>,
    ) -> Result<()> {
        let kb = key.as_bytes().to_vec();
        let undo = UndoOp::IndexDelete { index, key: kb.clone(), row: image };
        self.logged(txn, undo, |ctx, how| tree.set_ghost(key, true, ctx, how))?;
        self.enqueue_ghost(index, kb);
        Ok(())
    }

    /// Lock name of the gap the key would be inserted into.
    pub(crate) fn gap_after(&self, tree: &Tree, index: IndexId, key: &Key) -> Result<LockName> {
        Ok(match tree.next_geq(&key.successor())? {
            Some((next, _)) => LockName::gap(index, next),
            None => LockName::EndGap(index),
        })
    }

    // ---- DML -------------------------------------------------------------

    /// Insert a row.
    pub fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<()> {
        self.health.check_writable()?;
        let result = self.insert_inner(txn, table, row);
        self.note_write_result(result, "insert")
    }

    fn insert_inner(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<()> {
        let s = self.schema();
        let def = s.writable_table(table)?;
        def.schema.validate(&row)?;
        let key = Key::from_values(&def.schema.pk_values(&row));
        let tree = s.tree(def.index)?;
        self.acquire_phased(txn, LockName::Object(def.id), LockMode::IX)?;
        self.acquire_phased(txn, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        let ghost = match tree.get(&key)? {
            Some((false, _)) => return Err(Error::DuplicateKey(format!("{key:?} in '{table}'"))),
            Some((true, old)) => Some(old),
            None => None,
        };
        // Instant-duration gap lock: no serializable reader may have the
        // target range locked.
        let gap = self.gap_after(tree, def.index, &key)?;
        self.acquire_phased(txn, gap.clone(), LockMode::X)?;
        self.put_entry(txn, tree, def.index, &key, &row.to_bytes(), ghost)?;
        self.locks.release(txn.id, &gap);
        self.maintain_phased(txn, &s, def, Some(&row), None)
    }

    /// Delete a row by primary key (logical delete: ghost + cleanup later).
    pub fn delete(&self, txn: &mut Transaction, table: &str, pk: &[Value]) -> Result<()> {
        self.health.check_writable()?;
        let result = self.delete_inner(txn, table, pk);
        self.note_write_result(result, "delete")
    }

    fn delete_inner(&self, txn: &mut Transaction, table: &str, pk: &[Value]) -> Result<()> {
        let s = self.schema();
        let def = s.writable_table(table)?;
        let key = Key::from_values(pk);
        let tree = s.tree(def.index)?;
        let row = self.lock_live_row(txn, def, tree, &key)?;
        self.ghost_entry(txn, tree, def.index, &key, row.to_bytes())?;
        self.maintain_phased(txn, &s, def, None, Some(&row))
    }

    /// Update a row in place (primary key must be unchanged).
    pub fn update(&self, txn: &mut Transaction, table: &str, new_row: Row) -> Result<()> {
        self.health.check_writable()?;
        let s = self.schema();
        let result = s.writable_table(table).and_then(|def| {
            def.schema.validate(&new_row)?;
            let pk = def.schema.pk_values(&new_row);
            self.rewrite(txn, &s, def, &pk, |_| Ok(new_row))
        });
        self.note_write_result(result, "update")
    }

    /// Atomic read-modify-write of one row: X-locks the key, reads the
    /// current row, applies `f`, and writes the result back — one lock
    /// acquisition, one descent, one decode. This is how transactional
    /// workloads avoid lost updates (read-committed `get_row` + `update`
    /// would release the read lock in between).
    pub fn update_with(
        &self,
        txn: &mut Transaction,
        table: &str,
        pk: &[Value],
        f: impl FnOnce(&Row) -> Row,
    ) -> Result<()> {
        self.health.check_writable()?;
        let s = self.schema();
        let result = s.writable_table(table).and_then(|def| {
            self.rewrite(txn, &s, def, pk, |old| {
                let new_row = f(old);
                if def.schema.pk_values(&new_row) != pk {
                    return Err(Error::invalid("update_with must not change the primary key"));
                }
                def.schema.validate(&new_row)?;
                Ok(new_row)
            })
        });
        self.note_write_result(result, "update")
    }

    /// The update path: lock and read the live row `pk`, replace it with
    /// `new(old)`, and maintain the views with the (old, new) pair.
    fn rewrite(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        def: &TableDef,
        pk: &[Value],
        new: impl FnOnce(&Row) -> Result<Row>,
    ) -> Result<()> {
        let key = Key::from_values(pk);
        let tree = s.tree(def.index)?;
        let old_row = self.lock_live_row(txn, def, tree, &key)?;
        let new_row = new(&old_row)?;
        self.rewrite_entry(txn, tree, def.index, &key, &old_row.to_bytes(), &new_row.to_bytes())?;
        self.maintain_phased(txn, s, def, Some(&new_row), Some(&old_row))
    }

    /// IX on the table, X on the key, then the live row under the key.
    fn lock_live_row(
        &self,
        txn: &mut Transaction,
        def: &TableDef,
        tree: &Tree,
        key: &Key,
    ) -> Result<Row> {
        self.acquire_phased(txn, LockName::Object(def.id), LockMode::IX)?;
        self.acquire_phased(txn, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        match tree.get(key)? {
            Some((false, value)) => Row::from_bytes(&value),
            _ => Err(Error::NotFound(format!("{key:?} in '{}'", def.name))),
        }
    }

    /// Acquire a base-table lock, charging the wait to the transaction's
    /// *acquire* phase. View-side locks taken inside `maintain` are charged
    /// to the *maintain* phase instead (they are part of maintenance cost).
    fn acquire_phased(&self, txn: &mut Transaction, name: LockName, mode: LockMode) -> Result<()> {
        let t0 = self.obs.clock.now();
        let out = self.locks.acquire(txn.id, name, mode);
        txn.phase_acquire_us += self.obs.clock.now().saturating_sub(t0);
        out
    }

    /// Maintain the table's views, charging it to the *maintain* phase.
    fn maintain_phased(
        &self,
        txn: &mut Transaction,
        s: &SchemaSnapshot,
        def: &TableDef,
        new: Option<&Row>,
        old: Option<&Row>,
    ) -> Result<()> {
        let t0 = self.obs.clock.now();
        let out = self.maintain(txn, s, def, new, old);
        txn.phase_maintain_us += self.obs.clock.now().saturating_sub(t0);
        out
    }
}
