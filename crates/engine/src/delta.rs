//! Delta computation: how one DML statement on a base table translates
//! into [`RowDelta`]s against each dependent view.
//!
//! This is the "maintenance plan" of the paper's system, reduced to the
//! group-by/aggregate shape indexed views take: project the group-by
//! columns, evaluate the filter, and emit signed aggregate contributions.
//! Join views differ only in where the group values come from (a probe of
//! the dimension table, done by the caller).

use crate::catalog::{AggSpec, ViewDef, ViewSource};
use crate::escrow::zero_aggs;
use txview_common::{Error, Result, Row, Value};
use txview_view::RowDelta;
use txview_wal::record::ValueDelta;

/// The aggregate contributions of one qualifying row, with `sign` +1 for
/// inserts and −1 for deletes. Returns `None` if the row fails the filter.
/// For MIN/MAX columns the "delta" carries the contributing value (signs do
/// not apply; deletes of MIN/MAX contributors trigger recomputation
/// upstream).
pub fn row_contribution(view: &ViewDef, row: &Row, sign: i64) -> Result<Option<Vec<ValueDelta>>> {
    if !view.filter.eval(row) {
        return Ok(None);
    }
    let mut out = Vec::with_capacity(view.aggs.len());
    for spec in &view.aggs {
        out.push(contribution(view, spec, row, sign)?);
    }
    Ok(Some(out))
}

/// One aggregate's contribution of `row` (see [`row_contribution`]).
fn contribution(view: &ViewDef, spec: &AggSpec, row: &Row, sign: i64) -> Result<ValueDelta> {
    let v = row.get(spec.col());
    if v.is_null() {
        return Err(Error::Schema(format!(
            "NULL in aggregated column {} (view '{}')",
            spec.col(),
            view.name
        )));
    }
    Ok(match spec {
        AggSpec::SumInt { .. } | AggSpec::Avg { float: false, .. } => {
            ValueDelta::Int(v.as_int()? * sign)
        }
        AggSpec::SumFloat { .. } | AggSpec::Avg { float: true, .. } => {
            ValueDelta::Float(v.as_float()? * sign as f64)
        }
        AggSpec::Min { .. } | AggSpec::Max { .. } => match v {
            Value::Int(i) => ValueDelta::Int(*i),
            Value::Float(f) => ValueDelta::Float(*f),
            other => return Err(Error::Schema(format!("MIN/MAX over {other:?} unsupported"))),
        },
    })
}

/// The group-by columns of a single-table view.
fn single_group_by(view: &ViewDef) -> Result<&[usize]> {
    match &view.source {
        ViewSource::Single { group_by, .. } => Ok(group_by),
        ViewSource::Join { .. } => Err(Error::invalid("single_table_delta on a join view")),
        ViewSource::Derived { .. } => Err(Error::invalid("single_table_delta on a derived view")),
    }
}

/// Delta of a single-table view for an inserted (+1) or deleted (−1) row.
pub fn single_table_delta(view: &ViewDef, row: &Row, sign: i64) -> Result<Option<RowDelta>> {
    let group_by = single_group_by(view)?;
    Ok(row_contribution(view, row, sign)?.map(|aggs| RowDelta {
        group: group_by.iter().map(|&c| row.get(c).clone()).collect(),
        count: sign,
        aggs,
    }))
}

/// Delta of a join view for a fact-row insert/delete, given the group
/// values resolved by probing the dimension table.
pub fn join_delta(
    view: &ViewDef,
    fact_row: &Row,
    group: Vec<Value>,
    sign: i64,
) -> Result<Option<RowDelta>> {
    Ok(row_contribution(view, fact_row, sign)?.map(|aggs| RowDelta { group, count: sign, aggs }))
}

/// Deltas of a single-table view for an update `old → new`.
///
/// If the group is unchanged, both rows qualify and every aggregate is
/// additive, the update is one delta with count 0 (the common fast path:
/// only the aggregated columns moved). Otherwise a −1 delta for the old row
/// and a +1 delta for the new row are emitted. MIN/MAX views never merge
/// (the departing value may have been the extremum).
pub fn update_deltas(view: &ViewDef, old: &Row, new: &Row) -> Result<Vec<RowDelta>> {
    let group_by = single_group_by(view)?;
    let one_delta = view.aggs.iter().all(AggSpec::is_escrow_capable)
        && view.filter.eval(old)
        && view.filter.eval(new)
        && group_by.iter().all(|&c| old.get(c) == new.get(c));
    if !one_delta {
        let d_old = single_table_delta(view, old, -1)?;
        return Ok(d_old.into_iter().chain(single_table_delta(view, new, 1)?).collect());
    }
    let mut aggs = Vec::with_capacity(view.aggs.len());
    for spec in &view.aggs {
        let departing = contribution(view, spec, old, -1)?;
        aggs.push(departing.checked_add(contribution(view, spec, new, 1)?)?);
    }
    let group = group_by.iter().map(|&c| new.get(c).clone()).collect();
    Ok(vec![RowDelta { group, count: 0, aggs }])
}

/// The group values of a derived-view row for a given parent group.
/// An empty `group_by` is a global rollup, stored under one synthetic
/// constant `Int(0)` group column (an empty key is the B-tree's leftmost
/// fence and cannot name a row).
pub fn derived_group(group_by: &[usize], parent_group: &[Value]) -> Vec<Value> {
    if group_by.is_empty() {
        vec![Value::Int(0)]
    } else {
        group_by.iter().map(|&c| parent_group[c].clone()).collect()
    }
}

/// Project a parent view's delta into a derived child's delta — the linear
/// propagation step of the cascade. The child's COUNT_BIG tracks the sum of
/// parent counts (so the projection is exactly the parent's count delta),
/// and each child aggregate indexes the parent's stored row layout:
/// `col == parent_ngroup` sums the parent's COUNT_BIG, `col ==
/// parent_ngroup + 1 + i` sums parent aggregate `i`. Linearity is what
/// makes this sound under concurrent uncommitted escrow increments — the
/// projection never reads the parent row, only the delta.
pub fn derived_delta(child: &ViewDef, parent: &ViewDef, d: &RowDelta) -> Result<RowDelta> {
    let group_by = match &child.source {
        ViewSource::Derived { group_by, .. } => group_by,
        _ => return Err(Error::invalid("derived_delta on a non-derived view")),
    };
    let pngroup = parent.group_types.len();
    let mut aggs = Vec::with_capacity(child.aggs.len());
    for spec in &child.aggs {
        let col = spec.col();
        let projected = if col == pngroup {
            // Sums the parent's COUNT_BIG column.
            match spec {
                AggSpec::SumInt { .. } => ValueDelta::Int(d.count),
                _ => {
                    return Err(Error::Schema(format!(
                        "derived view '{}' must sum the parent count as SumInt",
                        child.name
                    )))
                }
            }
        } else if col > pngroup && col < pngroup + 1 + parent.aggs.len() {
            let src = d.aggs[col - pngroup - 1];
            match (spec, src) {
                (AggSpec::SumInt { .. } | AggSpec::Avg { float: false, .. }, ValueDelta::Int(_))
                | (
                    AggSpec::SumFloat { .. } | AggSpec::Avg { float: true, .. },
                    ValueDelta::Float(_),
                ) => src,
                _ => {
                    return Err(Error::corruption(format!(
                        "derived view '{}' aggregate {col} type mismatch",
                        child.name
                    )))
                }
            }
        } else {
            return Err(Error::Schema(format!(
                "derived view '{}' aggregate column {col} outside the parent's \
                 aggregate region",
                child.name
            )));
        };
        aggs.push(projected);
    }
    Ok(RowDelta { group: derived_group(group_by, &d.group), count: d.count, aggs })
}

/// Fold a parent's materialized contents `group → (count, aggs)` into the
/// derived child's expected contents — the recompute reference used to
/// populate a new derived view, to verify one against its immediate
/// parent, and by the differential oracles. Runs each parent row through
/// [`derived_delta`] so population and incremental maintenance share one
/// projection.
#[allow(clippy::type_complexity)]
pub fn fold_derived(
    child: &ViewDef,
    parent: &ViewDef,
    parent_rows: &std::collections::HashMap<Vec<Value>, (i64, Vec<Value>)>,
) -> Result<std::collections::HashMap<Vec<Value>, (i64, Vec<Value>)>> {
    let mut out: std::collections::HashMap<Vec<Value>, (i64, Vec<Value>)> =
        std::collections::HashMap::new();
    for (pgroup, (pcount, paggs)) in parent_rows {
        if *pcount == 0 {
            continue; // logically absent parent row contributes nothing
        }
        let aggs = paggs
            .iter()
            .map(|v| match v {
                Value::Int(i) => Ok(ValueDelta::Int(*i)),
                Value::Float(f) => Ok(ValueDelta::Float(*f)),
                other => Err(Error::corruption(format!(
                    "non-numeric parent aggregate {other:?} in '{}'",
                    parent.name
                ))),
            })
            .collect::<Result<Vec<_>>>()?;
        let d = RowDelta { group: pgroup.clone(), count: *pcount, aggs };
        let cd = derived_delta(child, parent, &d)?;
        let entry = out.entry(cd.group.clone()).or_insert_with(|| (0, zero_aggs(child)));
        entry.0 += cd.count;
        for (slot, dv) in entry.1.iter_mut().zip(&cd.aggs) {
            *slot = dv.apply_to(slot)?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{CmpOp, MaintenanceMode, Predicate};
    use txview_common::row;
    use txview_common::value::ValueType;
    use txview_common::{IndexId, ObjectId, PageId, ViewId};

    fn sum_view(filter: Predicate) -> ViewDef {
        ViewDef {
            id: ViewId(1),
            object: ObjectId(10),
            name: "v".into(),
            source: ViewSource::Single { table: ObjectId(1), group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
            index: IndexId(2),
            root: PageId(1),
            group_types: vec![ValueType::Int],
        }
    }

    #[test]
    fn insert_delta_projects_group_and_sums() {
        let v = sum_view(Predicate::True);
        let d = single_table_delta(&v, &row![1i64, 7i64, 100i64], 1).unwrap().unwrap();
        assert_eq!(d.group, vec![Value::Int(7)]);
        assert_eq!(d.count, 1);
        assert_eq!(d.aggs, vec![ValueDelta::Int(100)]);
    }

    #[test]
    fn delete_delta_is_negative() {
        let v = sum_view(Predicate::True);
        let d = single_table_delta(&v, &row![1i64, 7i64, 100i64], -1).unwrap().unwrap();
        assert_eq!(d.count, -1);
        assert_eq!(d.aggs, vec![ValueDelta::Int(-100)]);
    }

    #[test]
    fn filter_suppresses_delta() {
        let v = sum_view(Predicate::Cmp { col: 2, op: CmpOp::Ge, value: Value::Int(1000) });
        assert!(single_table_delta(&v, &row![1i64, 7i64, 100i64], 1).unwrap().is_none());
        assert!(single_table_delta(&v, &row![1i64, 7i64, 2000i64], 1).unwrap().is_some());
    }

    /// The two-deltas-then-zip formulation `update_deltas` replaced: the
    /// reference its one-delta fast path must agree with.
    fn two_delta_update(view: &ViewDef, old: &Row, new: &Row) -> Result<Vec<RowDelta>> {
        let d_old = single_table_delta(view, old, -1)?;
        let d_new = single_table_delta(view, new, 1)?;
        let additive = view.aggs.iter().all(AggSpec::is_escrow_capable);
        Ok(match (d_old, d_new) {
            (Some(o), Some(n)) if additive && o.group == n.group => {
                let zipped = o.aggs.iter().zip(&n.aggs);
                let aggs = zipped.map(|(a, b)| a.checked_add(*b)).collect::<Result<_>>()?;
                vec![RowDelta { group: n.group, count: 0, aggs }]
            }
            (o, n) => o.into_iter().chain(n).collect(),
        })
    }

    #[test]
    fn update_deltas_match_the_two_delta_reference() {
        let ge150 = Predicate::Cmp { col: 2, op: CmpOp::Ge, value: Value::Int(150) };
        let mut float_view = sum_view(Predicate::True);
        float_view.aggs = vec![AggSpec::SumFloat { col: 3 }, AggSpec::Avg { col: 2, float: false }];
        let mut minmax = sum_view(Predicate::True);
        minmax.aggs = vec![AggSpec::Min { col: 2 }, AggSpec::Max { col: 2 }];
        let r = |g: i64, amt: i64| row![1i64, g, amt, amt as f64 / 4.0];
        #[rustfmt::skip]
        let cases: [(&str, ViewDef, Row, Row, usize); 9] = [
            ("same group", sum_view(Predicate::True), r(7, 100), r(7, 130), 1),
            ("same group, float and avg", float_view.clone(), r(7, 100), r(7, 130), 1),
            ("same group, no change", sum_view(Predicate::True), r(7, 100), r(7, 100), 1),
            ("moved group", sum_view(Predicate::True), r(7, 100), r(8, 130), 2),
            ("moved group, float", float_view, r(7, 100), r(8, 100), 2),
            ("filter in", sum_view(ge150.clone()), r(7, 100), r(7, 200), 1),
            ("filter out", sum_view(ge150.clone()), r(7, 200), r(7, 100), 1),
            ("filtered both", sum_view(ge150), r(7, 100), r(7, 120), 0),
            ("min/max same group", minmax, r(7, 100), r(7, 130), 2),
        ];
        for (name, view, old, new, n) in cases {
            let got = update_deltas(&view, &old, &new).unwrap();
            assert_eq!(got, two_delta_update(&view, &old, &new).unwrap(), "{name}");
            assert_eq!(got.len(), n, "{name}");
        }
    }

    #[test]
    fn null_in_aggregated_column_is_an_error() {
        let v = sum_view(Predicate::True);
        let mut r = row![1i64, 7i64];
        r.push(Value::Null);
        assert!(single_table_delta(&v, &r, 1).is_err());
    }

    fn derived_view(parent: &ViewDef, group_by: Vec<usize>, aggs: Vec<AggSpec>) -> ViewDef {
        ViewDef {
            id: ViewId(parent.id.0 + 1),
            object: ObjectId(parent.object.0 + 1),
            name: format!("d{}", parent.id.0),
            source: ViewSource::Derived { parent: parent.id, group_by: group_by.clone() },
            aggs,
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
            index: IndexId(parent.index.0 + 1),
            root: PageId(1),
            group_types: if group_by.is_empty() {
                vec![ValueType::Int]
            } else {
                group_by.iter().map(|&c| parent.group_types[c]).collect()
            },
        }
    }

    #[test]
    fn derived_delta_projects_count_and_aggs() {
        // Parent layout: [grp@0, count@1, sum@2]. Identity child keeps the
        // group and sums both the parent count and the parent sum.
        let p = sum_view(Predicate::True);
        let c = derived_view(&p, vec![0], vec![AggSpec::SumInt { col: 1 }, AggSpec::SumInt { col: 2 }]);
        let d = RowDelta { group: vec![Value::Int(7)], count: 1, aggs: vec![ValueDelta::Int(100)] };
        let out = derived_delta(&c, &p, &d).unwrap();
        assert_eq!(out.group, vec![Value::Int(7)]);
        assert_eq!(out.count, 1);
        assert_eq!(out.aggs, vec![ValueDelta::Int(1), ValueDelta::Int(100)]);
    }

    #[test]
    fn derived_global_rollup_uses_synthetic_group() {
        let p = sum_view(Predicate::True);
        let c = derived_view(&p, vec![], vec![AggSpec::SumInt { col: 2 }]);
        let d = RowDelta { group: vec![Value::Int(9)], count: -1, aggs: vec![ValueDelta::Int(-30)] };
        let out = derived_delta(&c, &p, &d).unwrap();
        assert_eq!(out.group, vec![Value::Int(0)], "global rollup keys on Int(0)");
        assert_eq!(out.count, -1);
        assert_eq!(out.aggs, vec![ValueDelta::Int(-30)]);
    }

    #[test]
    fn derived_delta_rejects_group_region_aggregates() {
        let p = sum_view(Predicate::True);
        // col 0 is the parent's group column — not summable.
        let c = derived_view(&p, vec![0], vec![AggSpec::SumInt { col: 0 }]);
        let d = RowDelta { group: vec![Value::Int(7)], count: 1, aggs: vec![ValueDelta::Int(1)] };
        assert!(derived_delta(&c, &p, &d).is_err());
        // And past the aggregate region.
        let c = derived_view(&p, vec![0], vec![AggSpec::SumInt { col: 3 }]);
        assert!(derived_delta(&c, &p, &d).is_err());
    }

    #[test]
    fn join_delta_uses_provided_group() {
        let mut v = sum_view(Predicate::True);
        v.source = ViewSource::Join {
            fact: ObjectId(1),
            fact_fk_col: 1,
            dim: ObjectId(2),
            dim_group_by: vec![1],
        };
        let d = join_delta(&v, &row![1i64, 7i64, 100i64], vec![Value::Str("west".into())], 1)
            .unwrap()
            .unwrap();
        assert_eq!(d.group, vec![Value::Str("west".into())]);
        assert_eq!(d.aggs, vec![ValueDelta::Int(100)]);
    }
}
