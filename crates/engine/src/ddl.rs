//! DDL: the catalog, tables, indexed views and derived views.
//!
//! DDL is assumed quiesced (no concurrent DML), as in the paper's system.
//! A DDL statement edits a copy of the catalog and publishes the schema
//! snapshot built from it ([`crate::schema`]) in one step, so statements
//! never see a half-made definition and take no catalog lock.
//! Every object gets its own B-tree; a view is populated from its source in
//! one transaction and the DDL ends with a checkpoint, so it is
//! crash-durable without logical undo.

use crate::catalog::{
    AggSpec, Catalog, MaintenanceMode, Predicate, TableDef, ViewDef, ViewSource, ViewSpec,
};
use crate::db::Database;
use crate::escrow::encode_view_row;
use crate::schema::SchemaSnapshot;
use std::sync::Arc;
use txview_btree::Tree;
use txview_common::schema::Schema;
use txview_common::value::ValueType;
use txview_common::{Error, IndexId, Key, ObjectId, PageId, Result, ViewId};
use txview_txn::IsolationLevel;
use txview_wal::record::UndoOp;

impl Database {
    /// Install a previously-exported catalog and open its trees. Also
    /// used by the replication follower, whose database is built from parts
    /// and given the leader's exported catalog before replay starts.
    pub(crate) fn load_catalog(&self, bytes: &[u8]) -> Result<()> {
        let cat = Catalog::decode(bytes)?;
        *self.schema.write() = Arc::new(SchemaSnapshot::build(cat, &self.pool, None)?);
        Ok(())
    }

    /// Serialize the current catalog (what `open_dir` keeps in
    /// `catalog.bin`), for reopening via [`Database::with_parts_recovered`].
    pub fn export_catalog(&self) -> Vec<u8> {
        self.schema().catalog.encode()
    }

    /// Persist the catalog sidecar if this database is file-backed.
    pub(crate) fn persist_catalog(&self) -> Result<()> {
        if let Some(path) = self.catalog_path.lock().clone() {
            txview_common::write_file_atomic(&path, &self.export_catalog())?;
        }
        Ok(())
    }

    /// Apply `change` to a copy of the catalog and publish the snapshot
    /// built from the result. A `change` that fails publishes nothing.
    pub(crate) fn change_schema<T>(
        &self,
        change: impl FnOnce(&mut Catalog) -> Result<T>,
    ) -> Result<T> {
        let mut schema = self.schema.write();
        let mut cat = schema.catalog.clone();
        let out = change(&mut cat)?;
        *schema = Arc::new(SchemaSnapshot::build(cat, &self.pool, Some(&schema))?);
        Ok(out)
    }

    /// Create the B-tree of a new index id; the snapshot that publishes its
    /// definition opens it.
    pub(crate) fn create_tree(&self, cat: &mut Catalog) -> Result<(IndexId, PageId)> {
        let index = cat.alloc_index();
        let tree = Tree::create(&self.pool, &self.log, index)?;
        Ok((index, tree.root()))
    }

    /// Load `rows` into the fresh tree of `index` in one transaction. The
    /// records carry no undo: a crash before the DDL's closing checkpoint
    /// loses the DDL as a whole.
    pub(crate) fn bulk_load(
        &self,
        index: IndexId,
        rows: impl IntoIterator<Item = Result<(Key, Vec<u8>)>>,
    ) -> Result<()> {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return Ok(());
        }
        let schema = self.schema();
        let tree = schema.tree(index)?;
        let mut txn = self.begin(IsolationLevel::ReadCommitted);
        for row in rows {
            let (key, bytes) = row?;
            self.logged(&mut txn, UndoOp::None, |ctx, how| tree.insert(&key, &bytes, ctx, how))?;
        }
        self.txns.commit(&mut txn)?;
        Ok(())
    }

    /// Create a table with a clustered index on its primary key.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<ObjectId> {
        if schema.pk().is_empty() {
            return Err(Error::Schema(format!("table '{name}' needs a primary key")));
        }
        let id = self.change_schema(|cat| {
            let id = cat.alloc_object();
            let (index, root) = self.create_tree(cat)?;
            cat.add_table(TableDef { id, name: name.to_string(), schema, index, root })?;
            Ok(id)
        })?;
        self.persist_catalog()?;
        Ok(id)
    }

    /// Create an indexed view and populate it from the current base rows.
    pub fn create_indexed_view(&self, spec: ViewSpec) -> Result<ViewId> {
        let id = self.change_schema(|cat| {
            // Resolve and validate the source.
            let (group_types, base_schema): (Vec<ValueType>, Schema) = match &spec.source {
                ViewSource::Single { table, group_by } => {
                    let t = cat.table_by_id(*table)?;
                    let types = group_by.iter().map(|&c| t.schema.columns()[c].ty).collect();
                    (types, t.schema.clone())
                }
                ViewSource::Join { fact, dim, dim_group_by, fact_fk_col } => {
                    let f = cat.table_by_id(*fact)?;
                    let d = cat.table_by_id(*dim)?;
                    if d.schema.pk().len() != 1 {
                        return Err(Error::Schema("join-view dim needs a 1-column pk".into()));
                    }
                    if *fact_fk_col >= f.schema.arity() {
                        return Err(Error::Schema("fact fk column out of range".into()));
                    }
                    let types = dim_group_by.iter().map(|&c| d.schema.columns()[c].ty).collect();
                    (types, f.schema.clone())
                }
                ViewSource::Derived { .. } => {
                    return Err(Error::Schema(
                        "derived views go through create_derived_view".into(),
                    ));
                }
            };
            for agg in &spec.aggs {
                agg.stored_type(&base_schema)?;
                if !agg.is_escrow_capable() && matches!(spec.source, ViewSource::Join { .. }) {
                    return Err(Error::Schema("MIN/MAX unsupported on join views".into()));
                }
            }
            // The paper's restriction: MIN/MAX force X-lock maintenance.
            let maintenance = if spec.aggs.iter().all(AggSpec::is_escrow_capable) {
                spec.maintenance
            } else {
                MaintenanceMode::XLock
            };
            self.add_view(cat, |id, object, index, root| ViewDef {
                id,
                object,
                name: spec.name,
                source: spec.source,
                aggs: spec.aggs,
                filter: spec.filter,
                maintenance,
                deferred: spec.deferred,
                eager_group_delete: spec.eager_group_delete,
                index,
                root,
                group_types,
            })
        })?;
        self.populate_view(id)
    }

    /// Create a **derived** indexed view — a view over another view — and
    /// populate it from the parent's current contents. Derived views are
    /// maintained by the cascade queue at commit (never by base DML
    /// directly): each parent delta projects linearly onto the child, and
    /// the per-transaction queue coalesces everything to one refresh per
    /// `(view, group)` flushed in dependency order before the commit
    /// record.
    ///
    /// The child's COUNT_BIG tracks the **sum of parent counts** (base
    /// rows, transitively), which keeps propagation linear and preserves
    /// the ghost invariant (count 0 ⇒ sums 0) at every level. `group_by`
    /// and aggregate columns index the parent's *stored row layout*
    /// `[group cols | COUNT_BIG | agg cols]`; an empty `group_by` is a
    /// global rollup under one synthetic `Int(0)` group column. Parents
    /// must be non-deferred and all-SUM (MIN/MAX deltas are not linear).
    pub fn create_derived_view(
        &self,
        name: &str,
        parent_name: &str,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        maintenance: MaintenanceMode,
    ) -> Result<ViewId> {
        let id = self.change_schema(|cat| {
            let parent = cat.view(parent_name)?;
            let invalid = |why: String| Err(Error::Schema(format!("derived view '{name}': {why}")));
            if parent.deferred {
                return invalid(format!(
                    "parent '{parent_name}' is deferred (no per-statement deltas to cascade)"
                ));
            }
            if !parent.aggs.iter().all(AggSpec::is_escrow_capable) {
                return invalid(format!(
                    "parent '{parent_name}' has MIN/MAX aggregates (non-linear, cannot cascade)"
                ));
            }
            let pngroup = parent.group_types.len();
            if let Some(c) = group_by.iter().find(|&&c| c >= pngroup) {
                return invalid(format!(
                    "group column {c} outside the parent's group region (0..{pngroup})"
                ));
            }
            // AVG stores its running SUM (COUNT_BIG is the divisor), so an Avg
            // column composes wherever a same-typed Sum does — the projection
            // only ever adds stored sums.
            let int_like = |s: &AggSpec| {
                matches!(s, AggSpec::SumInt { .. } | AggSpec::Avg { float: false, .. })
            };
            let float_like = |s: &AggSpec| {
                matches!(s, AggSpec::SumFloat { .. } | AggSpec::Avg { float: true, .. })
            };
            for spec in &aggs {
                let col = spec.col();
                if !spec.is_escrow_capable() {
                    return invalid("MIN/MAX is unsupported on derived views".into());
                } else if col == pngroup {
                    if !matches!(spec, AggSpec::SumInt { .. }) {
                        return invalid(
                            "the parent COUNT_BIG column must be summed as SumInt".into(),
                        );
                    }
                } else if col > pngroup && col < pngroup + 1 + parent.aggs.len() {
                    let parent_spec = &parent.aggs[col - pngroup - 1];
                    let same_kind = (int_like(spec) && int_like(parent_spec))
                        || (float_like(spec) && float_like(parent_spec));
                    if !same_kind {
                        return invalid(format!(
                            "aggregate column {col} type mismatch with the parent aggregate"
                        ));
                    }
                } else {
                    return invalid(format!(
                        "aggregate column {col} outside the parent's stored aggregate region"
                    ));
                }
            }
            let group_types: Vec<ValueType> = if group_by.is_empty() {
                vec![ValueType::Int] // synthetic constant Int(0) group
            } else {
                group_by.iter().map(|&c| parent.group_types[c]).collect()
            };
            let parent = parent.id;
            self.add_view(cat, |id, object, index, root| ViewDef {
                id,
                object,
                name: name.to_string(),
                source: ViewSource::Derived { parent, group_by },
                aggs,
                filter: Predicate::True,
                maintenance,
                deferred: false,
                eager_group_delete: false,
                index,
                root,
                group_types,
            })
        })?;
        self.populate_view(id)
    }

    /// Allocate a new view's ids and tree in `cat`, the catalog copy its
    /// validation ran on, and register the definition `def` builds.
    fn add_view(
        &self,
        cat: &mut Catalog,
        def: impl FnOnce(ViewId, ObjectId, IndexId, PageId) -> ViewDef,
    ) -> Result<ViewId> {
        let id = cat.alloc_view();
        let object = cat.alloc_object();
        let (index, root) = self.create_tree(cat)?;
        cat.add_view(def(id, object, index, root))?;
        Ok(id)
    }

    /// The common tail of view DDL, once the view is published: populate it
    /// from base (a derived view too: a stale parent can never seed a fresh
    /// child), checkpoint, persist.
    fn populate_view(&self, id: ViewId) -> Result<ViewId> {
        let schema = self.schema();
        let def = schema.catalog.view_by_id(id)?;
        let rows = self.compute_view_from_base(&schema, def)?;
        self.bulk_load(
            def.index,
            rows.into_iter().map(|(group, (count, aggs))| {
                Ok((Key::from_values(&group), encode_view_row(&group, count, &aggs)?))
            }),
        )?;
        self.checkpoint()?;
        self.persist_catalog()?;
        Ok(id)
    }
}
