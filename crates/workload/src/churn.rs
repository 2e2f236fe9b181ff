//! The group come/go (churn) workload — E7.
//!
//! `items(id, grp, val)` holds at most one row per group, so every delete
//! empties its group (COUNT_BIG → 0) and every insert re-creates it. This
//! hammers exactly the anomaly machinery: ghosted view rows, resurrection,
//! asynchronous cleanup — and, in the `eager_group_delete` ablation, the
//! E→X conversions that deadlock under concurrency.

use crate::driver::OpFn;
use std::sync::Arc;
use std::time::Duration;
use txview_common::{row, Error, Result, Value};
use txview_engine::{
    AggSpec, Database, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

/// Churn workload parameters.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Number of single-row groups being emptied/refilled.
    pub groups: i64,
    /// E7 ablation: eager in-transaction deletion of emptied group rows.
    pub eager_group_delete: bool,
    /// Maintenance protocol.
    pub mode: MaintenanceMode,
    /// Buffer-pool pages.
    pub pool_pages: usize,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            groups: 16,
            eager_group_delete: false,
            mode: MaintenanceMode::Escrow,
            pool_pages: 2048,
            lock_timeout: Duration::from_secs(5),
        }
    }
}

/// Name of the churn view.
pub const VIEW: &str = "group_totals";

/// A set-up churn database.
pub struct Churn {
    /// The database.
    pub db: Arc<Database>,
    /// Configuration.
    pub cfg: ChurnConfig,
}

impl Churn {
    /// Build schema + view; groups start *empty*.
    pub fn setup(cfg: ChurnConfig) -> Result<Churn> {
        use txview_common::schema::{Column, Schema};
        use txview_common::value::ValueType;
        let db = Database::new_in_memory_with(cfg.pool_pages, cfg.lock_timeout);
        let t = db.create_table(
            "items",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("grp", ValueType::Int),
                    Column::new("val", ValueType::Int),
                ],
                vec![0],
            )?,
        )?;
        db.create_indexed_view(ViewSpec {
            name: VIEW.into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: cfg.mode,
            deferred: false,
            eager_group_delete: cfg.eager_group_delete,
        })?;
        db.checkpoint()?;
        Ok(Churn { db, cfg })
    }

    /// Toggle operation: `batch` groups per TRANSACTION. For each chosen
    /// group, delete its designated row if present (emptying the group) or
    /// insert it (creating the group); losing a race flips the op once.
    /// Multi-group transactions hold their view-row locks to commit, which
    /// is what makes the eager-delete ablation deadlock (E→X conversions
    /// against concurrent escrow holders on other groups).
    pub fn toggle_op(&self, batch: usize) -> Arc<OpFn> {
        let groups = self.cfg.groups;
        Arc::new(move |db, txn, rng, _seq| {
            for _ in 0..batch {
                let g = rng.below(groups as u64) as i64;
                // Row id == group id: at most one row per group.
                let pk = [Value::Int(g)];
                match db.delete(txn, "items", &pk) {
                    Ok(()) => {}
                    Err(Error::NotFound(_)) => match db.insert(txn, "items", row![g, g, 7i64]) {
                        Ok(()) => {}
                        Err(Error::DuplicateKey(_)) => db.delete(txn, "items", &pk)?,
                        Err(e) => return Err(e),
                    },
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
    }

    /// Verify the view (quiesced).
    pub fn verify(&self) -> Result<()> {
        self.db.harness().verify_view(VIEW)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_for, WorkerSpec};
    use txview_engine::IsolationLevel;

    #[test]
    fn ghost_mode_churn_is_consistent_and_cleanable() {
        let churn = Churn::setup(ChurnConfig::default()).unwrap();
        let specs = [WorkerSpec {
            name: "toggle".into(),
            threads: 4,
            isolation: IsolationLevel::ReadCommitted,
            op: churn.toggle_op(2),
        }];
        let res = run_for(&churn.db, &specs, Duration::from_millis(400));
        assert!(res[0].committed > 0);
        churn.verify().unwrap();
        assert!(churn.db.harness().ghost_backlog() > 0, "churn queues cleanup work");
        let report = churn.db.run_ghost_cleanup().unwrap();
        assert!(report.removed + report.skipped_live + report.skipped_locked > 0);
        churn.verify().unwrap();
    }

    #[test]
    fn eager_mode_is_correct_but_conflict_prone() {
        let churn = Churn::setup(ChurnConfig {
            eager_group_delete: true,
            groups: 2, // tiny: maximize E→X conversion collisions
            ..Default::default()
        })
        .unwrap();
        let specs = [WorkerSpec {
            name: "toggle".into(),
            threads: 4,
            isolation: IsolationLevel::ReadCommitted,
            op: churn.toggle_op(2),
        }];
        let res = run_for(&churn.db, &specs, Duration::from_millis(400));
        assert!(res[0].committed > 0);
        churn.verify().unwrap();
    }
}
