//! The sales star-schema workload (E6: deferred maintenance, E8: overhead
//! scaling with the number of views).
//!
//! * dimension `stores(pk, region)` — `n_stores` rows across 4 regions;
//! * fact `sales(id, store, product, amount)`;
//! * `n_views` single-table views `sales_by_product_<i>` grouping on
//!   `product` (identical shape: what E8 sweeps is *how many* views each
//!   DML statement must maintain);
//! * optionally one join view `revenue_by_region` (fact ⋈ dim);
//! * optionally all views deferred (E6).

use crate::driver::OpFn;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::{row, Result};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

/// Sales workload parameters.
#[derive(Clone, Debug)]
pub struct SalesConfig {
    /// Number of stores (dimension rows).
    pub n_stores: i64,
    /// Number of distinct products (group fan-in of the product views).
    pub n_products: i64,
    /// Number of identical single-table product views to maintain.
    pub n_views: usize,
    /// Also create the join view `revenue_by_region`.
    pub join_view: bool,
    /// Create every view deferred (bulk-refresh) instead of immediate.
    pub deferred: bool,
    /// Maintenance protocol for immediate views.
    pub mode: MaintenanceMode,
    /// Buffer-pool pages.
    pub pool_pages: usize,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
}

impl Default for SalesConfig {
    fn default() -> Self {
        SalesConfig {
            n_stores: 64,
            n_products: 256,
            n_views: 1,
            join_view: false,
            deferred: false,
            mode: MaintenanceMode::Escrow,
            pool_pages: 4096,
            lock_timeout: Duration::from_secs(5),
        }
    }
}

/// The four fixed regions stores are assigned to.
pub const REGIONS: [&str; 4] = ["north", "south", "east", "west"];

/// A set-up sales database.
pub struct Sales {
    /// The database.
    pub db: Arc<Database>,
    /// Configuration.
    pub cfg: SalesConfig,
    next_id: Arc<AtomicI64>,
}

impl Sales {
    /// Build schema + views.
    pub fn setup(cfg: SalesConfig) -> Result<Sales> {
        use txview_common::schema::{Column, Schema};
        use txview_common::value::ValueType;
        let db = Database::new_in_memory_with(cfg.pool_pages, cfg.lock_timeout);
        let dim = db.create_table(
            "stores",
            Schema::new(
                vec![
                    Column::new("pk", ValueType::Int),
                    Column::new("region", ValueType::Str),
                ],
                vec![0],
            )?,
        )?;
        let fact = db.create_table(
            "sales",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("store", ValueType::Int),
                    Column::new("product", ValueType::Int),
                    Column::new("amount", ValueType::Int),
                ],
                vec![0],
            )?,
        )?;
        // Load the dimension before any join view freezes it.
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for s in 0..cfg.n_stores {
            let region = REGIONS[(s % 4) as usize];
            db.insert(&mut txn, "stores", row![s, region])?;
        }
        db.commit(&mut txn)?;

        for i in 0..cfg.n_views {
            db.create_indexed_view(ViewSpec {
                name: format!("sales_by_product_{i}"),
                source: ViewSource::Single { table: fact, group_by: vec![2] },
                aggs: vec![AggSpec::SumInt { col: 3 }],
                filter: Predicate::True,
                maintenance: cfg.mode,
                deferred: cfg.deferred,
                eager_group_delete: false,
            })?;
        }
        if cfg.join_view {
            db.create_indexed_view(ViewSpec {
                name: "revenue_by_region".into(),
                source: ViewSource::Join {
                    fact,
                    fact_fk_col: 1,
                    dim,
                    dim_group_by: vec![1],
                },
                aggs: vec![AggSpec::SumInt { col: 3 }],
                filter: Predicate::True,
                maintenance: cfg.mode,
                deferred: cfg.deferred,
                eager_group_delete: false,
            })?;
        }
        db.checkpoint()?;
        Ok(Sales { db, cfg, next_id: Arc::new(AtomicI64::new(0)) })
    }

    /// Insert-one-sale operation (ids globally unique across workers).
    pub fn insert_sale_op(&self) -> Arc<OpFn> {
        let cfg = self.cfg.clone();
        let next = Arc::clone(&self.next_id);
        Arc::new(move |db, txn, rng, _seq| {
            let id = next.fetch_add(1, Ordering::Relaxed);
            let store = rng.below(cfg.n_stores as u64) as i64;
            let product = rng.below(cfg.n_products as u64) as i64;
            let amount = rng.range_inclusive(1, 100);
            db.insert(txn, "sales", row![id, store, product, amount])
        })
    }

    /// Verify every view.
    pub fn verify(&self) -> Result<()> {
        for i in 0..self.cfg.n_views {
            self.db.harness().verify_view(&format!("sales_by_product_{i}"))?;
        }
        if self.cfg.join_view {
            self.db.harness().verify_view("revenue_by_region")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_for, WorkerSpec};

    #[test]
    fn multi_view_maintenance_consistent_under_load() {
        let sales = Sales::setup(SalesConfig {
            n_views: 3,
            join_view: true,
            n_products: 16,
            n_stores: 8,
            ..Default::default()
        })
        .unwrap();
        let specs = [WorkerSpec {
            name: "insert".into(),
            threads: 4,
            isolation: IsolationLevel::ReadCommitted,
            op: sales.insert_sale_op(),
        }];
        let res = run_for(&sales.db, &specs, Duration::from_millis(300));
        assert!(res[0].committed > 0);
        sales.verify().unwrap();
    }

    #[test]
    fn deferred_views_accumulate_staleness() {
        let sales = Sales::setup(SalesConfig {
            n_views: 1,
            deferred: true,
            ..Default::default()
        })
        .unwrap();
        let mut txn = sales.db.begin(IsolationLevel::ReadCommitted);
        for i in 0..20 {
            sales
                .db
                .insert(&mut txn, "sales", row![i as i64, 0i64, 0i64, 10i64])
                .unwrap();
        }
        sales.db.commit(&mut txn).unwrap();
        assert_eq!(sales.db.harness().deferred_staleness("sales_by_product_0").unwrap(), 20);
        sales.db.harness().refresh_deferred_view("sales_by_product_0").unwrap();
        sales.verify().unwrap();
    }
}
