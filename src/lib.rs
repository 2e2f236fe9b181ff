//! # txview
//!
//! A from-scratch Rust reproduction of **Graefe & Zwilling, "Transaction
//! support for indexed views" (SIGMOD 2004)**: indexed (materialized)
//! aggregate views maintained *immediately inside user transactions*, made
//! scalable and recoverable by
//!
//! * **escrow (increment) locking** on aggregate view rows,
//! * **logical logging and logical undo** of commutative deltas (ARIES),
//! * **ghost records + system transactions** for the group come/go anomaly,
//! * **key-range locking** for serializable readers, and
//! * a **delta-chain multiversion store** for snapshot readers.
//!
//! This facade crate re-exports the workspace's public surface. Start at
//! [`Database`]:
//!
//! ```
//! use txview_repro::prelude::*;
//! use txview_repro::row;
//!
//! let db = Database::new_in_memory(256);
//! let t = db
//!     .create_table(
//!         "accounts",
//!         Schema::new(
//!             vec![
//!                 Column::new("id", ValueType::Int),
//!                 Column::new("branch", ValueType::Int),
//!                 Column::new("balance", ValueType::Int),
//!             ],
//!             vec![0],
//!         )
//!         .unwrap(),
//!     )
//!     .unwrap();
//! db.create_indexed_view(ViewSpec {
//!     name: "branch_balance".into(),
//!     source: ViewSource::Single { table: t, group_by: vec![1] },
//!     aggs: vec![AggSpec::SumInt { col: 2 }],
//!     filter: Predicate::True,
//!     maintenance: MaintenanceMode::Escrow,
//!     deferred: false,
//!     eager_group_delete: false,
//! })
//! .unwrap();
//!
//! let mut txn = db.begin(IsolationLevel::ReadCommitted);
//! db.insert(&mut txn, "accounts", row![1i64, 0i64, 100i64]).unwrap();
//! db.commit(&mut txn).unwrap();
//! db.harness().verify_view("branch_balance").unwrap();
//! ```

pub use txview_btree as btree;
pub use txview_common as common;
pub use txview_engine as engine;
pub use txview_lock as lock;
pub use txview_storage as storage;
pub use txview_txn as txn;
pub use txview_view as view;
pub use txview_wal as wal;
pub use txview_workload as workload;

pub use txview_common::row;

/// Everything a typical user needs.
pub mod prelude {
    pub use txview_common::schema::{Column, Schema};
    pub use txview_common::value::ValueType;
    pub use txview_common::{Error, Result, Row, Value};
    pub use txview_engine::{
        AggSpec, CmpOp, Database, IsolationLevel, MaintenanceMode, Predicate, Transaction,
        ViewSource, ViewSpec,
    };
}
