//! The commutative-delta machinery for aggregate view rows.
//!
//! A view row is an encoded [`Row`] of the shape
//!
//! ```text
//! [ group values ... | COUNT_BIG | agg_1 | agg_2 | ... ]
//! ```
//!
//! where every aggregate column (including the count) is stored as a
//! *fixed-width* INT or FLOAT value — 9 encoded bytes each — so escrow
//! increments can be applied as same-length in-place patches of the record's
//! trailing "aggregate region". The region is found one way: as the row's
//! tail, its last [`agg_region_len`] bytes, so no apply re-encodes the
//! group values to locate it.
//!
//! `COUNT_BIG(*)` doubles as the row's existence flag: a view row is
//! *visible* iff its count is positive. Decrement-to-zero therefore "ghosts"
//! the row without any non-commutative operation (a later increment
//! resurrects it; the ghost-cleanup system transaction removes settled
//! zero-count rows physically).

use crate::catalog::{AggSpec, ViewDef};
use txview_common::codec::{Reader, Writer};
use txview_common::{Error, Result, Row, Value};
use txview_view::RowDelta;
use txview_wal::record::{add_deltas, ValueDelta, FIXED_VALUE_BYTES};

/// Encoded byte length of one fixed-width aggregate value (tag + 8).
pub const AGG_VALUE_BYTES: usize = FIXED_VALUE_BYTES;

/// Byte length of the aggregate region for a view with `n_aggs` user
/// aggregates (count included).
pub fn agg_region_len(n_aggs: usize) -> usize {
    (1 + n_aggs) * AGG_VALUE_BYTES
}

/// Byte offset of the aggregate region within an encoded view row of
/// `row_len` bytes: the region is the row's tail.
pub fn agg_region_start(row_len: usize, n_aggs: usize) -> Result<usize> {
    row_len
        .checked_sub(agg_region_len(n_aggs))
        .ok_or_else(|| Error::corruption("view row shorter than its aggregate region"))
}

/// Encode a full view row (group values + count + aggregates).
pub fn encode_view_row(group: &[Value], count: i64, aggs: &[Value]) -> Result<Vec<u8>> {
    for a in aggs {
        match a {
            Value::Int(_) | Value::Float(_) => {}
            other => {
                return Err(Error::Schema(format!(
                    "aggregate values must be INT/FLOAT, got {other:?}"
                )))
            }
        }
    }
    let mut row = Row::new(group.to_vec());
    row.push(Value::Int(count));
    for a in aggs {
        row.push(a.clone());
    }
    Ok(row.to_bytes())
}

/// COUNT_BIG of an aggregate region: its first fixed-width value.
pub fn region_count(region: &[u8]) -> Result<i64> {
    match Value::decode(&mut Reader::new(region))? {
        Value::Int(c) => Ok(c),
        other => Err(Error::corruption(format!("count column is {other:?}"))),
    }
}

/// Decode the aggregate region bytes into `(count, aggregates)`.
pub fn decode_agg_region(region: &[u8], n_aggs: usize) -> Result<(i64, Vec<Value>)> {
    if region.len() != agg_region_len(n_aggs) {
        return Err(Error::corruption(format!(
            "aggregate region is {} bytes, expected {}",
            region.len(),
            agg_region_len(n_aggs)
        )));
    }
    let count = region_count(region)?;
    let mut r = Reader::new(&region[AGG_VALUE_BYTES..]);
    let mut aggs = Vec::with_capacity(n_aggs);
    for _ in 0..n_aggs {
        aggs.push(Value::decode(&mut r)?);
    }
    Ok((count, aggs))
}

/// Re-encode `(count, aggregates)` as region bytes.
pub fn encode_agg_region(count: i64, aggs: &[Value]) -> Vec<u8> {
    let mut w = Writer::with_capacity(agg_region_len(aggs.len()));
    Value::Int(count).encode(&mut w);
    for a in aggs {
        a.encode(&mut w);
    }
    w.into_bytes()
}

/// Apply *forward* escrow pairs (as logged / as published to the version
/// store) to a region, in place, through the same typed addition redo
/// uses ([`add_deltas`]): every slot is fixed-width and keeps its type, so
/// each pair rewrites only its own nine bytes. On error the region is left
/// as it was.
pub fn apply_forward_pairs(region: &mut [u8], n_aggs: usize, pairs: &[(u16, ValueDelta)]) -> Result<()> {
    if region.len() != agg_region_len(n_aggs) {
        return Err(Error::corruption(format!(
            "aggregate region is {} bytes, expected {}",
            region.len(),
            agg_region_len(n_aggs)
        )));
    }
    add_deltas(region, pairs)
}

/// Merge two sets of forward pairs (a transaction touching the same view
/// row repeatedly accumulates one net delta per row).
pub fn merge_pairs(acc: &mut Vec<(u16, ValueDelta)>, add: &[(u16, ValueDelta)]) -> Result<()> {
    for (pos, d) in add {
        if let Some((_, existing)) = acc.iter_mut().find(|(p, _)| p == pos) {
            *existing = existing.checked_add(*d)?;
        } else {
            acc.push((*pos, *d));
        }
    }
    Ok(())
}

/// Apply a MIN/MAX-style *merge* for inserts under X-lock maintenance:
/// each non-escrow aggregate takes min/max of the stored value and the
/// contributed value; escrow-capable ones are added.
pub fn apply_insert_merge(region: &[u8], view: &ViewDef, delta: &RowDelta) -> Result<Vec<u8>> {
    let (count, mut aggs) = decode_agg_region(region, view.aggs.len())?;
    let new_count = count
        .checked_add(delta.count)
        .ok_or_else(|| Error::invalid("COUNT_BIG overflow"))?;
    for (i, (spec, d)) in view.aggs.iter().zip(&delta.aggs).enumerate() {
        match spec {
            AggSpec::SumInt { .. } | AggSpec::SumFloat { .. } | AggSpec::Avg { .. } => {
                aggs[i] = d.apply_checked(&aggs[i])?;
            }
            AggSpec::Min { .. } => {
                let v = delta_value(d);
                if count == 0 || v.total_cmp(&aggs[i]).is_lt() {
                    aggs[i] = v;
                }
            }
            AggSpec::Max { .. } => {
                let v = delta_value(d);
                if count == 0 || v.total_cmp(&aggs[i]).is_gt() {
                    aggs[i] = v;
                }
            }
        }
    }
    Ok(encode_agg_region(new_count, &aggs))
}

/// The zero delta of each of `view`'s aggregates: the one definition of a
/// view's neutral aggregates, which also fixes each slot's type.
pub fn zero_deltas(view: &ViewDef) -> Vec<ValueDelta> {
    view.aggs
        .iter()
        .map(|spec| match spec {
            AggSpec::SumFloat { .. } | AggSpec::Avg { float: true, .. } => ValueDelta::Float(0.0),
            _ => ValueDelta::Int(0),
        })
        .collect()
}

/// Neutral aggregate values for a freshly materialized (invisible,
/// COUNT_BIG = 0) group row. MIN/MAX placeholders are overwritten by the
/// first merge (count 0 ⇒ take the contributed value unconditionally).
pub fn zero_aggs(view: &ViewDef) -> Vec<Value> {
    zero_deltas(view).iter().map(delta_value).collect()
}

/// Decide whether a single-row delete (`delta.count < 0`) retires a stored
/// extremum: the deleted contribution equals (or, on a corrupt view, beats)
/// the stored MIN/MAX on some column while the group stays visible. A
/// retiring delete must recompute the group from base; a non-retiring one
/// applies cheaply via [`apply_delete_keep_extrema`]. A delete that empties
/// the group never retires — a COUNT_BIG of zero ghosts the row, and the
/// next insert-merge overwrites the stale extrema unconditionally.
pub fn delete_retires_extremum(region: &[u8], view: &ViewDef, delta: &RowDelta) -> Result<bool> {
    let (count, aggs) = decode_agg_region(region, view.aggs.len())?;
    let new_count = count
        .checked_add(delta.count)
        .ok_or_else(|| Error::invalid("COUNT_BIG overflow"))?;
    if new_count <= 0 {
        return Ok(false);
    }
    for (i, (spec, d)) in view.aggs.iter().zip(&delta.aggs).enumerate() {
        let retired = match spec {
            AggSpec::Min { .. } => delta_value(d).total_cmp(&aggs[i]).is_le(),
            AggSpec::Max { .. } => delta_value(d).total_cmp(&aggs[i]).is_ge(),
            _ => false,
        };
        if retired {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Apply a non-extremal delete under X-lock maintenance: COUNT_BIG and the
/// escrow-capable aggregates take their (negative) additive deltas; MIN/MAX
/// values are untouched because the deleted row was strictly inside them.
pub fn apply_delete_keep_extrema(
    region: &[u8],
    view: &ViewDef,
    delta: &RowDelta,
) -> Result<Vec<u8>> {
    let (count, mut aggs) = decode_agg_region(region, view.aggs.len())?;
    let new_count = count
        .checked_add(delta.count)
        .ok_or_else(|| Error::invalid("COUNT_BIG overflow"))?;
    for (i, (spec, d)) in view.aggs.iter().zip(&delta.aggs).enumerate() {
        if spec.is_escrow_capable() {
            aggs[i] = d.apply_checked(&aggs[i])?;
        }
    }
    Ok(encode_agg_region(new_count, &aggs))
}

/// The contributed value carried by a MIN/MAX delta.
pub fn delta_value(d: &ValueDelta) -> Value {
    match d {
        ValueDelta::Int(v) => Value::Int(*v),
        ValueDelta::Float(v) => Value::Float(*v),
    }
}

/// Initial aggregate values for a brand-new group row receiving `delta`.
/// A delta whose type disagrees with the aggregate spec is rejected with
/// [`Error::TypeMismatch`] — the old behaviour silently truncated a
/// `Float` delta into a `SumInt` aggregate with `as i64`, losing the
/// fractional part forever on the first row of a group.
pub fn initial_aggs(view: &ViewDef, delta: &RowDelta) -> Result<Vec<Value>> {
    view.aggs
        .iter()
        .zip(&delta.aggs)
        .map(|(spec, d)| match (spec, d) {
            (AggSpec::SumInt { .. }, ValueDelta::Int(v)) => Ok(Value::Int(*v)),
            (AggSpec::SumInt { .. }, ValueDelta::Float(v)) => {
                Err(Error::type_mismatch("Int delta for SUM(int)", format!("Float({v})")))
            }
            (AggSpec::SumFloat { .. }, ValueDelta::Float(v)) => Ok(Value::Float(*v)),
            (AggSpec::SumFloat { .. }, ValueDelta::Int(v)) => {
                Err(Error::type_mismatch("Float delta for SUM(float)", format!("Int({v})")))
            }
            (AggSpec::Avg { float: false, .. }, ValueDelta::Int(v)) => Ok(Value::Int(*v)),
            (AggSpec::Avg { float: true, .. }, ValueDelta::Float(v)) => Ok(Value::Float(*v)),
            (AggSpec::Avg { float, .. }, d) => Err(Error::type_mismatch(
                if *float { "Float delta for AVG(float)" } else { "Int delta for AVG(int)" },
                format!("{d:?}"),
            )),
            (AggSpec::Min { .. } | AggSpec::Max { .. }, d) => Ok(delta_value(d)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MaintenanceMode, Predicate, ViewSource};
    use txview_common::value::ValueType;
    use txview_common::{IndexId, ObjectId, PageId, ViewId};

    fn view(aggs: Vec<AggSpec>) -> ViewDef {
        ViewDef {
            id: ViewId(1),
            object: ObjectId(10),
            name: "v".into(),
            source: ViewSource::Single { table: ObjectId(1), group_by: vec![1] },
            aggs,
            filter: Predicate::True,
            maintenance: MaintenanceMode::Escrow,
            deferred: false,
            eager_group_delete: false,
            index: IndexId(2),
            root: PageId(1),
            group_types: vec![ValueType::Int],
        }
    }

    fn sum_view() -> ViewDef {
        view(vec![AggSpec::SumInt { col: 2 }, AggSpec::SumFloat { col: 3 }])
    }

    /// The region is the row's tail: it starts after the arity header and
    /// the encoded group values, whatever their type and number.
    #[test]
    fn tail_rule_finds_the_region_after_the_group() {
        let groups = [
            vec![Value::Int(7)],
            vec![Value::Float(-2.5)],
            vec![Value::Str("west".into())],
            vec![Value::Int(7), Value::Str("g".into()), Value::Float(0.5)],
            vec![Value::Int(0)], // the global rollup's synthetic group
        ];
        for group in groups {
            let mut w = Writer::new();
            group.iter().for_each(|v| v.encode(&mut w));
            let row = encode_view_row(&group, 3, &[Value::Int(10), Value::Float(0.5)]).unwrap();
            let off = agg_region_start(row.len(), 2).unwrap();
            assert_eq!(off, 2 + w.len(), "{group:?}");
            let region = decode_agg_region(&row[off..], 2).unwrap();
            assert_eq!(region, (3, vec![Value::Int(10), Value::Float(0.5)]));
        }
        assert!(agg_region_start(AGG_VALUE_BYTES, 1).is_err(), "row shorter than its region");
    }

    /// Forward pairs, then their inverses (what an escrow undo adds),
    /// restore the region exactly.
    #[test]
    fn additive_apply_and_inverse_cancel() {
        let region = encode_agg_region(2, &[Value::Int(100), Value::Float(1.5)]);
        let delta = RowDelta {
            group: vec![Value::Int(1)],
            count: 1,
            aggs: vec![ValueDelta::Int(40), ValueDelta::Float(0.25)],
        };
        let mut after = region.clone();
        apply_forward_pairs(&mut after, 2, &delta.to_undo_pairs()).unwrap();
        let (c, a) = decode_agg_region(&after, 2).unwrap();
        assert_eq!(c, 3);
        assert_eq!(a, vec![Value::Int(140), Value::Float(1.75)]);
        assert_eq!(region_count(&after).unwrap(), 3);
        apply_forward_pairs(&mut after, 2, &delta.inverse().to_undo_pairs()).unwrap();
        assert_eq!(after, region);
    }

    #[test]
    fn additive_apply_preserves_length_always() {
        let mut region = encode_agg_region(0, &[Value::Int(0), Value::Float(0.0)]);
        let delta = RowDelta {
            group: vec![Value::Int(1)],
            count: -5,
            aggs: vec![ValueDelta::Int(i64::MIN / 2), ValueDelta::Float(-1e300)],
        };
        apply_forward_pairs(&mut region, 2, &delta.to_undo_pairs()).unwrap();
        assert_eq!(region.len(), agg_region_len(2));
        assert_eq!(region_count(&region).unwrap(), -5);
    }

    #[test]
    fn count_overflow_checked() {
        let mut region = encode_agg_region(i64::MAX, &[Value::Int(0), Value::Float(0.0)]);
        let delta = RowDelta {
            group: vec![],
            count: 1,
            aggs: vec![ValueDelta::Int(0), ValueDelta::Float(0.0)],
        };
        let before = region.clone();
        assert!(apply_forward_pairs(&mut region, 2, &delta.to_undo_pairs()).is_err());
        assert_eq!(region, before);
    }

    #[test]
    fn min_max_merge_on_insert() {
        let v = view(vec![AggSpec::Min { col: 2 }, AggSpec::Max { col: 2 }]);
        let region = encode_agg_region(1, &[Value::Int(50), Value::Int(50)]);
        let d = |x: i64| RowDelta {
            group: vec![],
            count: 1,
            aggs: vec![ValueDelta::Int(x), ValueDelta::Int(x)],
        };
        let after = apply_insert_merge(&region, &v, &d(30)).unwrap();
        let (_, a) = decode_agg_region(&after, 2).unwrap();
        assert_eq!(a, vec![Value::Int(30), Value::Int(50)]);
        let after = apply_insert_merge(&after, &v, &d(90)).unwrap();
        let (c, a) = decode_agg_region(&after, 2).unwrap();
        assert_eq!(c, 3);
        assert_eq!(a, vec![Value::Int(30), Value::Int(90)]);
    }

    #[test]
    fn initial_aggs_for_new_group() {
        let v = sum_view();
        let delta = RowDelta {
            group: vec![Value::Int(1)],
            count: 1,
            aggs: vec![ValueDelta::Int(7), ValueDelta::Float(2.5)],
        };
        assert_eq!(
            initial_aggs(&v, &delta).unwrap(),
            vec![Value::Int(7), Value::Float(2.5)]
        );
    }

    #[test]
    fn initial_aggs_rejects_float_into_sum_int() {
        // Regression: this used to truncate 2.5 → 2 with `as i64`.
        let v = sum_view();
        let delta = RowDelta {
            group: vec![Value::Int(1)],
            count: 1,
            aggs: vec![ValueDelta::Float(2.5), ValueDelta::Float(0.0)],
        };
        match initial_aggs(&v, &delta) {
            Err(Error::TypeMismatch { got, .. }) => assert!(got.contains("2.5")),
            other => panic!("expected TypeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn initial_aggs_rejects_int_into_sum_float() {
        let v = sum_view();
        let delta = RowDelta {
            group: vec![Value::Int(1)],
            count: 1,
            aggs: vec![ValueDelta::Int(7), ValueDelta::Int(3)],
        };
        assert!(matches!(initial_aggs(&v, &delta), Err(Error::TypeMismatch { .. })));
    }

    #[test]
    fn additive_apply_rejects_mistyped_deltas() {
        let region = encode_agg_region(1, &[Value::Int(10), Value::Float(1.0)]);
        // Float delta on the SUM(int) column, Int delta on the SUM(float).
        for aggs in [
            vec![ValueDelta::Float(0.5), ValueDelta::Float(0.5)],
            vec![ValueDelta::Int(1), ValueDelta::Int(1)],
        ] {
            let d = RowDelta { group: vec![], count: 1, aggs };
            let mut r = region.clone();
            let got = apply_forward_pairs(&mut r, 2, &d.to_undo_pairs());
            assert!(matches!(got, Err(Error::TypeMismatch { .. })), "{got:?}");
            assert_eq!(r, region, "a refused delta changes nothing");
        }
        // A well-typed delta still works.
        let ok = RowDelta {
            group: vec![],
            count: 1,
            aggs: vec![ValueDelta::Int(1), ValueDelta::Float(0.5)],
        };
        assert!(apply_forward_pairs(&mut region.clone(), 2, &ok.to_undo_pairs()).is_ok());
    }

    #[test]
    fn forward_pairs_patch_the_region_in_place() {
        let mut region = encode_agg_region(2, &[Value::Int(10), Value::Float(1.5)]);
        let pairs = [(0u16, ValueDelta::Int(3)), (2, ValueDelta::Float(0.25)), (1, ValueDelta::Int(-4))];
        apply_forward_pairs(&mut region, 2, &pairs).unwrap();
        assert_eq!(
            decode_agg_region(&region, 2).unwrap(),
            (5, vec![Value::Int(6), Value::Float(1.75)])
        );
        let one = [(0u16, ValueDelta::Int(1))];
        assert!(apply_forward_pairs(&mut encode_agg_region(i64::MAX, &[]), 0, &one).is_err(), "overflow");
        assert!(apply_forward_pairs(&mut region, 2, &[(3, ValueDelta::Int(1))]).is_err(), "position");
        assert!(apply_forward_pairs(&mut region[1..], 2, &one).is_err(), "region length");
    }

    #[test]
    fn forward_and_undo_pairs_reject_mistyped_deltas() {
        let region = encode_agg_region(1, &[Value::Int(10)]);
        // Position 1 holds an Int aggregate; a Float pair must not coerce
        // it, nor its inverse (what an escrow undo adds).
        let bad = vec![(1u16, ValueDelta::Float(0.5))];
        let inverse = vec![(1u16, ValueDelta::Float(-0.5))];
        for pairs in [&bad, &inverse] {
            assert!(matches!(
                apply_forward_pairs(&mut region.clone(), 1, pairs),
                Err(Error::TypeMismatch { .. })
            ));
        }
        // Float on COUNT_BIG stays rejected.
        let bad_count = vec![(0u16, ValueDelta::Float(1.0))];
        assert!(apply_forward_pairs(&mut region.clone(), 1, &bad_count).is_err());
        // Int pair on a Float aggregate rejected symmetrically.
        let fregion = encode_agg_region(1, &[Value::Float(1.5)]);
        let bad_f = vec![(1u16, ValueDelta::Int(2))];
        assert!(matches!(
            apply_forward_pairs(&mut fregion.clone(), 1, &bad_f),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn insert_merge_rejects_mistyped_sum_delta() {
        let v = sum_view();
        let region = encode_agg_region(1, &[Value::Int(10), Value::Float(1.0)]);
        let bad = RowDelta {
            group: vec![],
            count: 1,
            aggs: vec![ValueDelta::Float(0.5), ValueDelta::Float(0.5)],
        };
        assert!(matches!(
            apply_insert_merge(&region, &v, &bad),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn avg_is_additive_everywhere() {
        // AVG stores its SUM: zero/initial/additive all behave like a sum.
        let v = view(vec![AggSpec::Avg { col: 2, float: false }, AggSpec::Avg { col: 3, float: true }]);
        assert_eq!(zero_aggs(&v), vec![Value::Int(0), Value::Float(0.0)]);
        let delta = RowDelta {
            group: vec![Value::Int(1)],
            count: 1,
            aggs: vec![ValueDelta::Int(8), ValueDelta::Float(0.5)],
        };
        assert_eq!(initial_aggs(&v, &delta).unwrap(), vec![Value::Int(8), Value::Float(0.5)]);
        let region = encode_agg_region(2, &[Value::Int(10), Value::Float(1.0)]);
        let mut after = region.clone();
        apply_forward_pairs(&mut after, 2, &delta.to_undo_pairs()).unwrap();
        let (c, a) = decode_agg_region(&after, 2).unwrap();
        assert_eq!(c, 3);
        assert_eq!(a, vec![Value::Int(18), Value::Float(1.5)]);
        // Mistyped deltas stay hard errors.
        let bad = RowDelta {
            group: vec![],
            count: 1,
            aggs: vec![ValueDelta::Float(0.5), ValueDelta::Float(0.5)],
        };
        assert!(matches!(initial_aggs(&v, &bad), Err(Error::TypeMismatch { .. })));
        assert!(matches!(
            apply_forward_pairs(&mut region.clone(), 2, &bad.to_undo_pairs()),
            Err(Error::TypeMismatch { .. })
        ));
    }

    #[test]
    fn delete_retirement_classification() {
        let v = view(vec![AggSpec::Min { col: 2 }, AggSpec::Max { col: 2 }]);
        let region = encode_agg_region(3, &[Value::Int(10), Value::Int(90)]);
        let del = |x: i64| RowDelta {
            group: vec![],
            count: -1,
            aggs: vec![ValueDelta::Int(x), ValueDelta::Int(x)],
        };
        // Strictly inside both extrema: cheap.
        assert!(!delete_retires_extremum(&region, &v, &del(50)).unwrap());
        // Equal to the stored min / max: must recompute.
        assert!(delete_retires_extremum(&region, &v, &del(10)).unwrap());
        assert!(delete_retires_extremum(&region, &v, &del(90)).unwrap());
        // Emptying the group never retires (ghosted row, extrema unread).
        let region1 = encode_agg_region(1, &[Value::Int(10), Value::Int(10)]);
        assert!(!delete_retires_extremum(&region1, &v, &del(10)).unwrap());
    }

    #[test]
    fn non_extremal_delete_keeps_extrema_and_sums_sums() {
        let v = view(vec![AggSpec::Min { col: 2 }, AggSpec::SumInt { col: 2 }]);
        let region = encode_agg_region(3, &[Value::Int(10), Value::Int(150)]);
        let delta = RowDelta {
            group: vec![],
            count: -1,
            aggs: vec![ValueDelta::Int(50), ValueDelta::Int(-50)],
        };
        assert!(!delete_retires_extremum(&region, &v, &delta).unwrap());
        let after = apply_delete_keep_extrema(&region, &v, &delta).unwrap();
        let (c, a) = decode_agg_region(&after, 2).unwrap();
        assert_eq!(c, 2);
        assert_eq!(a, vec![Value::Int(10), Value::Int(100)]);
    }

    #[test]
    fn bad_region_rejected() {
        assert!(decode_agg_region(&[0u8; 5], 1).is_err());
        let region = encode_agg_region(1, &[Value::Int(1)]);
        assert!(decode_agg_region(&region, 2).is_err());
    }
}
