//! The schema snapshot: everything a statement needs to know about the
//! schema, in one immutable value.
//!
//! DDL and catalog loading build a new [`SchemaSnapshot`] copy-on-write
//! and publish it as one `Arc` (`Database::schema`). A statement takes that
//! `Arc` once and borrows every definition and tree from it, so it holds no
//! catalog lock while it runs and copies no definition. DDL is quiesced
//! (see [`crate::ddl`]); a snapshot is never changed, only replaced.
//!
//! Beside the catalog the snapshot holds what is derived from it:
//!
//! * the open B-tree of every index;
//! * per table, the views its DML maintains and its secondary indexes, in
//!   ascending id order, so maintenance takes its locks and logs its
//!   records in the same order on every run;
//! * per view, its derived children in ascending id order and its depth in
//!   the view dependency graph. A derived view has exactly one parent
//!   (`ViewSource::Derived { parent }`), and that parent has a smaller id,
//!   so the graph is a forest: a base-sourced view has depth 0, a derived
//!   view its parent's depth plus one, and ascending depth is a
//!   topological order (the cascade queue drains by it).

use crate::catalog::{Catalog, SecondaryIndexDef, TableDef, ViewDef, ViewSource};
use std::collections::HashMap;
use std::sync::Arc;
use txview_btree::Tree;
use txview_common::{Error, IndexId, ObjectId, Result, ViewId};
use txview_storage::buffer::BufferPool;

/// What DML on one table maintains.
#[derive(Default)]
struct TableLinks {
    /// Its single-table views and the join views it is the fact side of.
    views: Vec<ViewId>,
    /// Its secondary indexes.
    indexes: Vec<IndexId>,
    /// It is the dimension of a join view, so its DML is refused.
    dim: bool,
}

/// One view's place in the dependency graph.
struct ViewLinks {
    depth: u32,
    children: Vec<ViewId>,
}

/// One published schema: a catalog and what is derived from it.
#[derive(Default)]
pub(crate) struct SchemaSnapshot {
    /// The catalog this snapshot was built from.
    pub(crate) catalog: Catalog,
    trees: HashMap<IndexId, Arc<Tree>>,
    /// The view whose rows each view index holds.
    view_at: HashMap<IndexId, ViewId>,
    tables: HashMap<ObjectId, TableLinks>,
    views: HashMap<ViewId, ViewLinks>,
}

impl SchemaSnapshot {
    /// The snapshot of `catalog`. A tree `prev` already has open for the
    /// same index and root is shared, every other one is opened. A derived
    /// view whose parent is missing, is the view itself or has a later id
    /// is `Corruption`: DDL never makes one, so it was loaded.
    pub(crate) fn build(
        catalog: Catalog,
        pool: &Arc<BufferPool>,
        prev: Option<&SchemaSnapshot>,
    ) -> Result<SchemaSnapshot> {
        let mut trees = HashMap::new();
        let roots = catalog.tables().map(|t| (t.index, t.root));
        let roots = roots.chain(catalog.views().map(|v| (v.index, v.root)));
        for (index, root) in roots.chain(catalog.indexes().map(|i| (i.index, i.root))) {
            let tree = match prev.and_then(|p| p.trees.get(&index)) {
                Some(tree) if tree.root() == root => Arc::clone(tree),
                _ => Arc::new(Tree::open(pool, index, root)),
            };
            trees.insert(index, tree);
        }
        let mut tables: HashMap<ObjectId, TableLinks> = HashMap::new();
        for i in catalog.indexes() {
            tables.entry(i.table).or_default().indexes.push(i.index);
        }
        let mut view_at = HashMap::new();
        let mut views: HashMap<ViewId, ViewLinks> = HashMap::new();
        // Ascending id: a parent is linked before its children.
        for v in catalog.views() {
            view_at.insert(v.index, v.id);
            let depth = match &v.source {
                ViewSource::Single { table, .. } => {
                    tables.entry(*table).or_default().views.push(v.id);
                    0
                }
                ViewSource::Join { fact, dim, .. } => {
                    tables.entry(*fact).or_default().views.push(v.id);
                    tables.entry(*dim).or_default().dim = true;
                    0
                }
                ViewSource::Derived { parent, .. } => {
                    let links =
                        views.get_mut(parent).filter(|_| *parent < v.id).ok_or_else(|| {
                            Error::corruption(format!(
                                "derived view {} needs an older parent view, not {}",
                                v.id.0, parent.0
                            ))
                        })?;
                    links.children.push(v.id);
                    links.depth + 1
                }
            };
            views.insert(v.id, ViewLinks { depth, children: Vec::new() });
        }
        Ok(SchemaSnapshot { catalog, trees, view_at, tables, views })
    }

    /// The open B-tree of `index`.
    pub(crate) fn tree(&self, index: IndexId) -> Result<&Tree> {
        self.trees
            .get(&index)
            .map(|tree| &**tree)
            .ok_or_else(|| Error::NotFound(format!("index {}", index.0)))
    }

    /// The table `name`, refused if it is the dimension of a join view:
    /// the join-delta probe assumes a stable dimension (see DESIGN.md).
    pub(crate) fn writable_table(&self, name: &str) -> Result<&TableDef> {
        let def = self.catalog.table(name)?;
        if self.tables.get(&def.id).is_some_and(|t| t.dim) {
            return Err(Error::invalid(format!(
                "table '{name}' is the dimension of a join view; its DML is frozen"
            )));
        }
        Ok(def)
    }

    /// The views DML on `table` maintains, in ascending id order. Derived
    /// views are never among them: the cascade queue maintains those.
    pub(crate) fn views_on(&self, table: ObjectId) -> impl Iterator<Item = &ViewDef> {
        let ids = self.tables.get(&table).map_or(&[][..], |t| &t.views);
        ids.iter().map(|id| &self.catalog.views[id])
    }

    /// The secondary indexes of `table`, in ascending index id order.
    pub(crate) fn indexes_on(&self, table: ObjectId) -> impl Iterator<Item = &SecondaryIndexDef> {
        let ids = self.tables.get(&table).map_or(&[][..], |t| &t.indexes);
        ids.iter().map(|id| &self.catalog.indexes[id])
    }

    /// The view whose rows `index` holds, if it is a view index.
    pub(crate) fn view_at(&self, index: IndexId) -> Option<&ViewDef> {
        self.view_at.get(&index).map(|id| &self.catalog.views[id])
    }

    /// The derived views over `view`, in ascending id order.
    pub(crate) fn children(&self, view: ViewId) -> impl Iterator<Item = &ViewDef> {
        let ids = self.views.get(&view).map_or(&[][..], |v| &v.children);
        ids.iter().map(|id| &self.catalog.views[id])
    }

    /// Depth of `view` in the dependency graph (0: base-sourced).
    pub(crate) fn depth(&self, view: ViewId) -> u32 {
        self.views.get(&view).map_or(0, |v| v.depth)
    }

    /// The deepest view's depth (0 with no derived view).
    pub(crate) fn max_depth(&self) -> u32 {
        self.views.values().map(|v| v.depth).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tests::{table, view};
    use txview_common::PageId;
    use txview_storage::disk::MemDisk;

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemDisk::new()), 16)
    }

    /// Table 1 `t` and, registered in the order given, view `v{id}` (object
    /// and index `100 + id`) for each `(id, source)`.
    fn catalog(views: &[(u32, ViewSource)]) -> Catalog {
        let mut c = Catalog::new();
        c.add_table(table(1, "t", 1)).unwrap();
        for (id, source) in views {
            c.add_view(view(*id, 100 + id, &format!("v{id}"), source.clone(), 100 + id)).unwrap();
        }
        c
    }

    fn single() -> ViewSource {
        ViewSource::Single { table: ObjectId(1), group_by: vec![1] }
    }

    fn derived(parent: u32) -> ViewSource {
        ViewSource::Derived { parent: ViewId(parent), group_by: vec![] }
    }

    fn names<'a>(views: impl Iterator<Item = &'a ViewDef>) -> Vec<&'a str> {
        views.map(|v| v.name.as_str()).collect()
    }

    #[test]
    fn depth_follows_the_parent_chain_and_children_keep_id_order() {
        let c = catalog(&[(4, derived(1)), (1, single()), (3, derived(2)), (2, derived(1))]);
        let s = SchemaSnapshot::build(c, &pool(), None).unwrap();
        assert_eq!([1, 2, 3, 4].map(|v| s.depth(ViewId(v))), [0, 1, 2, 1]);
        assert_eq!(names(s.children(ViewId(1))), ["v2", "v4"]);
        assert_eq!(names(s.children(ViewId(2))), ["v3"]);
        assert_eq!(s.children(ViewId(3)).count(), 0);
        assert_eq!(s.max_depth(), 2);
        // Derived views are maintained by the cascade queue, not base DML.
        assert_eq!(names(s.views_on(ObjectId(1))), ["v1"]);
    }

    #[test]
    fn views_and_indexes_of_a_table_come_in_id_order() {
        let join = ViewSource::Join {
            fact: ObjectId(1),
            fact_fk_col: 1,
            dim: ObjectId(2),
            dim_group_by: vec![1],
        };
        let mut c = catalog(&[8, 3, 4, 7, 5, 6, 9, 2].map(|id| (id, single())));
        c.add_view(view(1, 101, "join", join, 101)).unwrap();
        c.add_table(table(2, "d", 2)).unwrap();
        for (name, index) in [("b", 11), ("a", 10)] {
            let def = SecondaryIndexDef {
                name: name.into(),
                table: ObjectId(1),
                cols: vec![1],
                unique: false,
                index: IndexId(index),
                root: PageId(1),
            };
            c.add_index(def).unwrap();
        }
        let s = SchemaSnapshot::build(c, &pool(), None).unwrap();
        let ids: Vec<u32> = s.views_on(ObjectId(1)).map(|v| v.id.0).collect();
        assert_eq!(ids, (1..=9).collect::<Vec<_>>());
        assert_eq!(
            s.indexes_on(ObjectId(1)).map(|i| i.name.as_str()).collect::<Vec<_>>(),
            ["a", "b"]
        );
        assert_eq!(s.views_on(ObjectId(2)).count() + s.indexes_on(ObjectId(2)).count(), 0);
        assert!(s.writable_table("t").is_ok());
        assert!(matches!(s.writable_table("d"), Err(Error::InvalidOperation(_))));
        assert_eq!(s.view_at(IndexId(101)).map(|v| v.name.as_str()), Some("join"));
        assert!(s.view_at(IndexId(1)).is_none());
    }

    #[test]
    fn a_derived_view_needs_an_older_parent_view() {
        // v2 over a missing view, over itself, over the later v3.
        for parent in [9, 2, 3] {
            let c = catalog(&[(1, single()), (2, derived(parent)), (3, single())]);
            let built = SchemaSnapshot::build(c, &pool(), None);
            assert!(matches!(built, Err(Error::Corruption(_))), "parent {parent}");
        }
    }

    #[test]
    fn a_rebuild_shares_the_trees_it_already_has() {
        let pool = pool();
        let first = SchemaSnapshot::build(catalog(&[]), &pool, None).unwrap();
        let second = SchemaSnapshot::build(catalog(&[(1, single())]), &pool, Some(&first)).unwrap();
        assert!(std::ptr::eq(first.tree(IndexId(1)).unwrap(), second.tree(IndexId(1)).unwrap()));
        assert!(first.tree(IndexId(101)).is_err() && second.tree(IndexId(101)).is_ok());
    }

    #[test]
    fn an_empty_snapshot_is_sane() {
        let s = SchemaSnapshot::default();
        assert_eq!((s.max_depth(), s.depth(ViewId(1))), (0, 0));
        assert_eq!(s.children(ViewId(1)).count() + s.views_on(ObjectId(1)).count(), 0);
        assert!(s.tree(IndexId(1)).is_err());
    }
}
