//! The catalog: table and indexed-view definitions.
//!
//! Definitions are immutable after DDL (like the paper's system: creating
//! or dropping an indexed view is a schema change, not a runtime event).
//! Root page ids never change (the B-tree "splits" its root in place), so a
//! catalog entry fully describes an index forever.
//!
//! Encoded (for `catalog.bin` and for a replication snapshot), a catalog
//! is [`CATALOG_HEADER`] and then one [`frame`] around its body.

use std::collections::BTreeMap;
use txview_common::codec::{Reader, Writer};
use txview_common::frame;
use txview_common::schema::Schema;
use txview_common::value::ValueType;
use txview_common::{Error, IndexId, ObjectId, PageId, Result, Row, Value, ViewId};

/// Comparison operator for simple view filters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

/// A simple conjunctive predicate over base-table columns (the WHERE clause
/// of an indexed-view definition).
#[derive(Clone, PartialEq, Debug)]
pub enum Predicate {
    /// Always true (no filter).
    True,
    /// `row[col] op value`.
    Cmp {
        /// Column position in the base row.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
}

impl Predicate {
    /// Evaluate against a base row. NULL comparisons are false (SQL-ish).
    pub fn eval(&self, row: &Row) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, value } => {
                let v = row.get(*col);
                if v.is_null() || value.is_null() {
                    return false;
                }
                let ord = v.total_cmp(value);
                match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }
            }
            Predicate::And(a, b) => a.eval(row) && b.eval(row),
        }
    }
}

/// One aggregate column of an indexed view.
///
/// `COUNT_BIG(*)` is always maintained implicitly (the paper requires it —
/// it is the group's existence counter), so it is not listed here.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AggSpec {
    /// SUM of an INT base column (escrow-maintainable).
    SumInt {
        /// Source column in the base row.
        col: usize,
    },
    /// SUM of a FLOAT base column (escrow-maintainable).
    SumFloat {
        /// Source column in the base row.
        col: usize,
    },
    /// MIN of a base column — **not** escrow-maintainable: forces X-lock
    /// maintenance and may require base recomputation on deletes.
    Min {
        /// Source column in the base row.
        col: usize,
    },
    /// MAX of a base column — same restrictions as `Min`.
    Max {
        /// Source column in the base row.
        col: usize,
    },
    /// AVG of a base column, stored as its SUM (COUNT_BIG(*) is always
    /// maintained, so the quotient is derived at read time — the paper's
    /// required rewrite). The stored sum commutes under addition, so AVG is
    /// escrow-maintainable and composes with cascades and replication.
    Avg {
        /// Source column in the base row.
        col: usize,
        /// Stored sum is FLOAT (else INT).
        float: bool,
    },
}

impl AggSpec {
    /// Source column in the base row.
    pub fn col(&self) -> usize {
        match self {
            AggSpec::SumInt { col }
            | AggSpec::SumFloat { col }
            | AggSpec::Min { col }
            | AggSpec::Max { col }
            | AggSpec::Avg { col, .. } => *col,
        }
    }

    /// True iff this aggregate commutes under addition (escrow-capable).
    /// AVG qualifies because its stored representation *is* a sum.
    pub fn is_escrow_capable(&self) -> bool {
        matches!(
            self,
            AggSpec::SumInt { .. } | AggSpec::SumFloat { .. } | AggSpec::Avg { .. }
        )
    }

    /// The stored value type of the aggregate column.
    pub fn stored_type(&self, base: &Schema) -> Result<ValueType> {
        match self {
            AggSpec::SumInt { .. } => Ok(ValueType::Int),
            AggSpec::SumFloat { .. } => Ok(ValueType::Float),
            AggSpec::Avg { col, float } => {
                let want = if *float { ValueType::Float } else { ValueType::Int };
                if base.columns()[*col].ty != want {
                    return Err(Error::Schema(format!(
                        "AVG column {col} is not {want:?}"
                    )));
                }
                Ok(want)
            }
            AggSpec::Min { col } | AggSpec::Max { col } => {
                let ty = base.columns()[*col].ty;
                if ty == ValueType::Str {
                    return Err(Error::Schema("MIN/MAX over STR unsupported".into()));
                }
                Ok(ty)
            }
        }
    }
}

/// How view rows are locked during maintenance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaintenanceMode {
    /// The paper's protocol: E locks + commutative deltas.
    Escrow,
    /// The baseline: plain exclusive locks on view rows.
    XLock,
}

/// Where a view's rows come from.
#[derive(Clone, PartialEq, Debug)]
pub enum ViewSource {
    /// `SELECT g..., COUNT_BIG(*), aggs FROM base WHERE p GROUP BY g...`
    Single {
        /// The base table.
        table: ObjectId,
        /// Group-by columns of the base table.
        group_by: Vec<usize>,
    },
    /// `SELECT dim.g..., COUNT_BIG(*), aggs(fact) FROM fact JOIN dim ON
    /// fact[fk] = dim.pk WHERE p(fact) GROUP BY dim.g...`
    Join {
        /// The fact table (aggregated; DML drives maintenance).
        fact: ObjectId,
        /// Column of `fact` holding the dim's primary key.
        fact_fk_col: usize,
        /// The dimension table (probed during maintenance).
        dim: ObjectId,
        /// Group-by columns of the **dim** table.
        dim_group_by: Vec<usize>,
    },
    /// A view over another view: re-aggregates the parent's stored rows.
    /// `SELECT pg..., COUNT_BIG := SUM(parent.count), aggs := SUM(parent
    /// columns) FROM parent GROUP BY pg...` — COUNT_BIG transitively counts
    /// *base* rows (the sum of parent counts), so the ghost invariant
    /// (count 0 ⇒ all sums zero) holds at every level and maintenance stays
    /// linear in the parent's deltas. Maintained by the cascade queue, not
    /// by base DML.
    Derived {
        /// The parent view.
        parent: ViewId,
        /// Group-by positions **into the parent's group columns**. Empty
        /// means a global rollup — stored under one synthetic constant
        /// `Int(0)` group column (the empty key is reserved as the B-tree's
        /// leftmost fence and cannot name a row).
        group_by: Vec<usize>,
    },
}

/// What a user supplies to `create_indexed_view`.
#[derive(Clone, Debug)]
pub struct ViewSpec {
    /// View name (unique).
    pub name: String,
    /// Row source (single table or fact-join-dim).
    pub source: ViewSource,
    /// Aggregate columns (COUNT_BIG(*) is implicit).
    pub aggs: Vec<AggSpec>,
    /// Filter over base/fact rows.
    pub filter: Predicate,
    /// Requested locking protocol. Views containing MIN/MAX are forced to
    /// `XLock` regardless (the paper's restriction).
    pub maintenance: MaintenanceMode,
    /// Deferred views are not maintained by DML; they are refreshed in bulk
    /// (the E6 baseline).
    pub deferred: bool,
    /// E7 ablation: physically delete a group row inside the user
    /// transaction when its count reaches zero (requires an E→X conversion,
    /// which deadlocks with concurrent escrow holders) instead of leaving
    /// an invisible row for asynchronous ghost cleanup.
    pub eager_group_delete: bool,
}

/// A table in the catalog.
#[derive(Clone, Debug)]
pub struct TableDef {
    /// Object id.
    pub id: ObjectId,
    /// Name (unique).
    pub name: String,
    /// Row schema (with primary-key columns).
    pub schema: Schema,
    /// The clustered index (rows live in its leaves, keyed by PK).
    pub index: IndexId,
    /// Root page of the clustered index.
    pub root: PageId,
}

/// A secondary index on a base table.
///
/// Non-unique entries are keyed by `(indexed columns..., pk columns...)` so
/// duplicates stay distinct; unique entries are keyed by the indexed
/// columns alone. Entry values hold the encoded primary-key values for the
/// back-probe into the clustered index.
#[derive(Clone, Debug)]
pub struct SecondaryIndexDef {
    /// Index name (unique).
    pub name: String,
    /// The base table.
    pub table: ObjectId,
    /// Indexed column positions, in key order.
    pub cols: Vec<usize>,
    /// Enforce uniqueness of the indexed columns.
    pub unique: bool,
    /// The index's B-tree.
    pub index: IndexId,
    /// Root page.
    pub root: PageId,
}

/// An indexed view in the catalog.
#[derive(Clone, Debug)]
pub struct ViewDef {
    /// View id.
    pub id: ViewId,
    /// Object id (for object-level locks).
    pub object: ObjectId,
    /// Name (unique).
    pub name: String,
    /// Row source.
    pub source: ViewSource,
    /// Aggregates (after COUNT_BIG).
    pub aggs: Vec<AggSpec>,
    /// Filter.
    pub filter: Predicate,
    /// Effective maintenance mode.
    pub maintenance: MaintenanceMode,
    /// Deferred-maintenance flag.
    pub deferred: bool,
    /// E7 ablation: eager in-transaction deletion of emptied groups.
    pub eager_group_delete: bool,
    /// The view's B-tree index.
    pub index: IndexId,
    /// Root page of the view index.
    pub root: PageId,
    /// Types of the group-by columns (for decoding view keys).
    pub group_types: Vec<ValueType>,
}

impl ViewDef {

    /// True if maintained with escrow locks.
    pub fn is_escrow(&self) -> bool {
        self.maintenance == MaintenanceMode::Escrow
    }
}

/// The catalog: every definition keyed by its id (so iteration is in
/// ascending id order, which is creation order), plus id allocation. Names
/// are unique per kind and found by a scan (a catalog holds a handful of
/// definitions); ids are unique too, and an object or index id names one
/// definition of any kind.
#[derive(Clone, Default)]
pub struct Catalog {
    pub(crate) tables: BTreeMap<ObjectId, TableDef>,
    pub(crate) views: BTreeMap<ViewId, ViewDef>,
    pub(crate) indexes: BTreeMap<IndexId, SecondaryIndexDef>,
    next_object: u32,
    next_index: u32,
    next_view: u32,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Allocate an object id.
    pub fn alloc_object(&mut self) -> ObjectId {
        self.next_object += 1;
        ObjectId(self.next_object)
    }

    /// Allocate an index id.
    pub fn alloc_index(&mut self) -> IndexId {
        self.next_index += 1;
        IndexId(self.next_index)
    }

    /// Allocate a view id.
    pub fn alloc_view(&mut self) -> ViewId {
        self.next_view += 1;
        ViewId(self.next_view)
    }

    /// Refuse an object id or index id some definition already has.
    fn check_fresh(&self, object: Option<ObjectId>, index: IndexId) -> Result<()> {
        if let Some(o) = object {
            if self.tables.contains_key(&o) || self.views.values().any(|v| v.object == o) {
                return Err(Error::Schema(format!("object id {} exists", o.0)));
            }
        }
        let mut taken =
            self.tables.values().map(|t| t.index).chain(self.views.values().map(|v| v.index));
        if self.indexes.contains_key(&index) || taken.any(|i| i == index) {
            return Err(Error::Schema(format!("index id {} exists", index.0)));
        }
        Ok(())
    }

    /// Register a table.
    pub fn add_table(&mut self, def: TableDef) -> Result<()> {
        if self.table(&def.name).is_ok() {
            return Err(Error::Schema(format!("table '{}' exists", def.name)));
        }
        self.check_fresh(Some(def.id), def.index)?;
        self.tables.insert(def.id, def);
        Ok(())
    }

    /// Register a view.
    pub fn add_view(&mut self, def: ViewDef) -> Result<()> {
        if self.view(&def.name).is_ok() {
            return Err(Error::Schema(format!("view '{}' exists", def.name)));
        }
        if self.views.contains_key(&def.id) {
            return Err(Error::Schema(format!("view id {} exists", def.id.0)));
        }
        self.check_fresh(Some(def.object), def.index)?;
        self.views.insert(def.id, def);
        Ok(())
    }

    /// Register a secondary index.
    pub fn add_index(&mut self, def: SecondaryIndexDef) -> Result<()> {
        if self.index(&def.name).is_ok() {
            return Err(Error::Schema(format!("index '{}' exists", def.name)));
        }
        self.check_fresh(None, def.index)?;
        self.indexes.insert(def.index, def);
        Ok(())
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.tables
            .values()
            .find(|t| t.name == name)
            .ok_or_else(|| Error::Schema(format!("unknown table '{name}'")))
    }

    /// Look up a table by id.
    pub fn table_by_id(&self, id: ObjectId) -> Result<&TableDef> {
        self.tables.get(&id).ok_or_else(|| Error::Schema(format!("unknown table id {id:?}")))
    }

    /// Look up a view by name.
    pub fn view(&self, name: &str) -> Result<&ViewDef> {
        self.views
            .values()
            .find(|v| v.name == name)
            .ok_or_else(|| Error::Schema(format!("unknown view '{name}'")))
    }

    /// Look up a view by id.
    pub fn view_by_id(&self, id: ViewId) -> Result<&ViewDef> {
        self.views.get(&id).ok_or_else(|| Error::Schema(format!("unknown view id {id:?}")))
    }

    /// Look up a secondary index by name.
    pub fn index(&self, name: &str) -> Result<&SecondaryIndexDef> {
        self.indexes
            .values()
            .find(|i| i.name == name)
            .ok_or_else(|| Error::Schema(format!("unknown index '{name}'")))
    }

    /// All tables, in ascending id order.
    pub fn tables(&self) -> impl Iterator<Item = &TableDef> {
        self.tables.values()
    }

    /// All views, in ascending id order.
    pub fn views(&self) -> impl Iterator<Item = &ViewDef> {
        self.views.values()
    }

    /// All secondary indexes, in ascending index id order.
    pub fn indexes(&self) -> impl Iterator<Item = &SecondaryIndexDef> {
        self.indexes.values()
    }
}

// ---- persistence -----------------------------------------------------

impl Predicate {
    fn encode(&self, w: &mut Writer) {
        match self {
            Predicate::True => {
                w.u8(0);
            }
            Predicate::Cmp { col, op, value } => {
                w.u8(1).u16(*col as u16).u8(match op {
                    CmpOp::Eq => 0,
                    CmpOp::Ne => 1,
                    CmpOp::Lt => 2,
                    CmpOp::Le => 3,
                    CmpOp::Gt => 4,
                    CmpOp::Ge => 5,
                });
                value.encode(w);
            }
            Predicate::And(a, b) => {
                w.u8(2);
                a.encode(w);
                b.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Predicate> {
        Ok(match r.u8()? {
            0 => Predicate::True,
            1 => {
                let col = r.u16()? as usize;
                let op = match r.u8()? {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    5 => CmpOp::Ge,
                    t => return Err(Error::corruption(format!("bad cmp op {t}"))),
                };
                Predicate::Cmp { col, op, value: Value::decode(r)? }
            }
            2 => Predicate::And(Box::new(Predicate::decode(r)?), Box::new(Predicate::decode(r)?)),
            t => return Err(Error::corruption(format!("bad predicate tag {t}"))),
        })
    }
}

fn encode_agg(a: &AggSpec, w: &mut Writer) {
    match a {
        AggSpec::SumInt { col } => w.u8(0).u16(*col as u16),
        AggSpec::SumFloat { col } => w.u8(1).u16(*col as u16),
        AggSpec::Min { col } => w.u8(2).u16(*col as u16),
        AggSpec::Max { col } => w.u8(3).u16(*col as u16),
        AggSpec::Avg { col, float } => {
            w.u8(4).u16(*col as u16).bool(*float)
        }
    };
}

fn decode_agg(r: &mut Reader<'_>) -> Result<AggSpec> {
    let tag = r.u8()?;
    let col = r.u16()? as usize;
    Ok(match tag {
        0 => AggSpec::SumInt { col },
        1 => AggSpec::SumFloat { col },
        2 => AggSpec::Min { col },
        3 => AggSpec::Max { col },
        4 => AggSpec::Avg { col, float: r.bool()? },
        t => return Err(Error::corruption(format!("bad agg tag {t}"))),
    })
}

/// A column-position list: a `u16` count, then one `u16` each.
fn put_cols(w: &mut Writer, cols: &[usize]) {
    w.u16(cols.len() as u16);
    for &c in cols {
        w.u16(c as u16);
    }
}

fn get_cols(r: &mut Reader<'_>) -> Result<Vec<usize>> {
    (0..r.u16()?).map(|_| Ok(r.u16()? as usize)).collect()
}

/// The bytes an encoded catalog starts with: magic, then format version.
pub const CATALOG_HEADER: [u8; 8] = [b'T', b'X', b'V', b'C', 1, 0, 0, 0];

impl Catalog {
    /// Serialize the full catalog (DDL state) for the sidecar file.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.u32(self.next_object).u32(self.next_index).u32(self.next_view);
        w.u32(self.tables.len() as u32);
        for t in self.tables.values() {
            w.u32(t.id.0).str(&t.name);
            t.schema.encode(&mut w);
            w.u32(t.index.0).page(t.root);
        }
        w.u32(self.views.len() as u32);
        for v in self.views.values() {
            w.u32(v.id.0).u32(v.object.0).str(&v.name);
            match &v.source {
                ViewSource::Single { table, group_by } => {
                    put_cols(w.u8(0).u32(table.0), group_by);
                }
                ViewSource::Join { fact, fact_fk_col, dim, dim_group_by } => {
                    w.u8(1).u32(fact.0).u16(*fact_fk_col as u16).u32(dim.0);
                    put_cols(&mut w, dim_group_by);
                }
                ViewSource::Derived { parent, group_by } => {
                    put_cols(w.u8(2).u32(parent.0), group_by);
                }
            }
            w.u16(v.aggs.len() as u16);
            for a in &v.aggs {
                encode_agg(a, &mut w);
            }
            v.filter.encode(&mut w);
            w.u8(match v.maintenance {
                MaintenanceMode::Escrow => 0,
                MaintenanceMode::XLock => 1,
            });
            w.bool(v.deferred).bool(v.eager_group_delete);
            w.u32(v.index.0).page(v.root);
            w.u16(v.group_types.len() as u16);
            for &t in &v.group_types {
                w.u8(t.tag());
            }
            // Reserved tag byte, always 0. Tag 1 (an attached hash index)
            // is retired and never reused.
            w.u8(0);
        }
        w.u32(self.indexes.len() as u32);
        for i in self.indexes.values() {
            put_cols(w.str(&i.name).u32(i.table.0), &i.cols);
            w.bool(i.unique).u32(i.index.0).page(i.root);
        }
        [&CATALOG_HEADER[..], &frame::encode(&w.into_bytes())].concat()
    }

    /// Deserialize a catalog produced by [`Catalog::encode`]. The bytes
    /// must be exactly its header and one whole frame, and the frame's
    /// body exactly one catalog: an unknown tag, trailing bytes, or a
    /// definition `add_table` / `add_view` / `add_index` refuses (a
    /// duplicate name or id) are `Corruption`.
    pub fn decode(bytes: &[u8]) -> Result<Catalog> {
        let refused = |e: Error| Error::corruption(format!("catalog: {e}"));
        let body = frame::check_header(bytes, &CATALOG_HEADER, "catalog")?;
        let mut r = Reader::new(frame::decode_exact(body, "catalog")?);
        let mut cat = Catalog::new();
        cat.next_object = r.u32()?;
        cat.next_index = r.u32()?;
        cat.next_view = r.u32()?;
        let nt = r.u32()? as usize;
        for _ in 0..nt {
            let id = ObjectId(r.u32()?);
            let name = r.str()?.to_owned();
            let schema = Schema::decode(&mut r)?;
            let index = IndexId(r.u32()?);
            let root = r.page()?;
            cat.add_table(TableDef { id, name, schema, index, root }).map_err(refused)?;
        }
        let nv = r.u32()? as usize;
        for _ in 0..nv {
            let id = ViewId(r.u32()?);
            let object = ObjectId(r.u32()?);
            let name = r.str()?.to_owned();
            let source = match r.u8()? {
                0 => ViewSource::Single { table: ObjectId(r.u32()?), group_by: get_cols(&mut r)? },
                1 => ViewSource::Join {
                    fact: ObjectId(r.u32()?),
                    fact_fk_col: r.u16()? as usize,
                    dim: ObjectId(r.u32()?),
                    dim_group_by: get_cols(&mut r)?,
                },
                2 => ViewSource::Derived { parent: ViewId(r.u32()?), group_by: get_cols(&mut r)? },
                t => return Err(Error::corruption(format!("bad view source tag {t}"))),
            };
            let na = r.u16()? as usize;
            let mut aggs = Vec::with_capacity(na);
            for _ in 0..na {
                aggs.push(decode_agg(&mut r)?);
            }
            let filter = Predicate::decode(&mut r)?;
            let maintenance = match r.u8()? {
                0 => MaintenanceMode::Escrow,
                1 => MaintenanceMode::XLock,
                m => return Err(Error::corruption(format!("bad maintenance mode {m}"))),
            };
            let deferred = r.bool()?;
            let eager_group_delete = r.bool()?;
            let index = IndexId(r.u32()?);
            let root = r.page()?;
            let ng = r.u16()? as usize;
            let mut group_types = Vec::with_capacity(ng);
            for _ in 0..ng {
                group_types.push(ValueType::from_tag(r.u8()?)?);
            }
            match r.u8()? {
                0 => {}
                t => return Err(Error::corruption(format!("bad view tag {t}"))),
            }
            cat.add_view(ViewDef {
                id,
                object,
                name,
                source,
                aggs,
                filter,
                maintenance,
                deferred,
                eager_group_delete,
                index,
                root,
                group_types,
            })
            .map_err(refused)?;
        }
        let ni = r.u32()? as usize;
        for _ in 0..ni {
            let name = r.str()?.to_owned();
            let table = ObjectId(r.u32()?);
            let cols = get_cols(&mut r)?;
            let unique = r.bool()?;
            let index = IndexId(r.u32()?);
            let root = r.page()?;
            cat.add_index(SecondaryIndexDef { name, table, cols, unique, index, root })
                .map_err(refused)?;
        }
        if !r.is_exhausted() {
            return Err(Error::corruption(format!("{} bytes after the catalog", r.remaining())));
        }
        Ok(cat)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use txview_common::row;
    use txview_common::schema::Column;

    fn base_schema() -> Schema {
        Schema::new(
            vec![
                Column::new("id", ValueType::Int),
                Column::new("grp", ValueType::Int),
                Column::new("amount", ValueType::Int),
            ],
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn predicate_eval() {
        let r = row![1i64, 5i64, 100i64];
        let p = Predicate::Cmp { col: 2, op: CmpOp::Ge, value: Value::Int(50) };
        assert!(p.eval(&r));
        let p2 = Predicate::And(
            Box::new(p),
            Box::new(Predicate::Cmp { col: 1, op: CmpOp::Eq, value: Value::Int(6) }),
        );
        assert!(!p2.eval(&r));
        assert!(Predicate::True.eval(&r));
    }

    #[test]
    fn predicate_null_is_false() {
        let mut r = row![1i64];
        r.push(Value::Null);
        let p = Predicate::Cmp { col: 1, op: CmpOp::Eq, value: Value::Int(1) };
        assert!(!p.eval(&r));
        let p = Predicate::Cmp { col: 1, op: CmpOp::Ne, value: Value::Int(1) };
        assert!(!p.eval(&r), "NULL != x is unknown, not true");
    }

    #[test]
    fn agg_spec_classification() {
        assert!(AggSpec::SumInt { col: 1 }.is_escrow_capable());
        assert!(AggSpec::SumFloat { col: 1 }.is_escrow_capable());
        assert!(!AggSpec::Min { col: 1 }.is_escrow_capable());
        assert!(!AggSpec::Max { col: 1 }.is_escrow_capable());
        let s = base_schema();
        assert_eq!(AggSpec::SumInt { col: 2 }.stored_type(&s).unwrap(), ValueType::Int);
        assert_eq!(AggSpec::Min { col: 2 }.stored_type(&s).unwrap(), ValueType::Int);
    }

    /// Table `id` over `(id, grp, amount)`, its rows in index `index`.
    pub(crate) fn table(id: u32, name: &str, index: u32) -> TableDef {
        let (id, index) = (ObjectId(id), IndexId(index));
        TableDef { id, name: name.into(), schema: base_schema(), index, root: PageId(1) }
    }

    /// An escrow `SUM(amount)` view grouped on one INT column.
    pub(crate) fn view(id: u32, object: u32, name: &str, source: ViewSource, index: u32) -> ViewDef {
        ViewDef {
            id: ViewId(id),
            object: ObjectId(object),
            name: name.into(),
            source,
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
            index: IndexId(index),
            root: PageId(1),
            group_types: vec![ValueType::Int],
        }
    }

    #[test]
    fn catalog_registration_and_lookup() {
        let mut c = Catalog::new();
        c.add_table(table(1, "t", 1)).unwrap();
        assert_eq!(c.table("t").unwrap().id, ObjectId(1));
        assert_eq!(c.table_by_id(ObjectId(1)).unwrap().name, "t");
        assert!(c.table("nope").is_err());
        assert!(c.add_table(table(2, "t", 9)).is_err());
    }

    #[test]
    fn a_taken_name_or_id_is_refused() {
        let mut c = Catalog::new();
        c.add_table(table(1, "t", 1)).unwrap();
        let single = || ViewSource::Single { table: ObjectId(1), group_by: vec![1] };
        c.add_view(view(1, 2, "v", single(), 2)).unwrap();
        // A name, a view id, a view's and a table's object id, index ids.
        for (id, object, name, index) in [
            (2, 3, "v", 3),
            (1, 3, "w", 3),
            (2, 2, "w", 3),
            (2, 1, "w", 3),
            (2, 3, "w", 1),
            (2, 3, "w", 2),
        ] {
            let def = view(id, object, name, single(), index);
            assert!(matches!(c.add_view(def.clone()), Err(Error::Schema(_))), "{def:?}");
        }
        assert_eq!(c.views().count(), 1);
    }

    #[test]
    fn derived_views_roundtrip_and_resolve() {
        let mut c = Catalog::new();
        c.add_table(table(1, "t", 1)).unwrap();
        let single = ViewSource::Single { table: ObjectId(1), group_by: vec![1] };
        c.add_view(view(1, 2, "v", single, 2)).unwrap();
        let rollup = ViewSource::Derived { parent: ViewId(1), group_by: vec![] };
        c.add_view(view(2, 3, "rollup", rollup.clone(), 3)).unwrap();
        assert_eq!(c.view_by_id(ViewId(2)).unwrap().name, "rollup");
        // Persistence: tag-2 sources survive the sidecar roundtrip.
        let decoded = Catalog::decode(&c.encode()).unwrap();
        assert_eq!(decoded.view("rollup").unwrap().source, rollup);
        assert_eq!(decoded.encode(), c.encode());
    }
}
