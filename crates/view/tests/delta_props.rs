//! The view-row delta algebra: `from_pairs` inverts `to_undo_pairs` (the
//! log form loses nothing a view's zero aggregates cannot restore), and
//! merging a delta's inverse undoes merging the delta.

use proptest::prelude::*;
use txview_common::Value;
use txview_view::RowDelta;
use txview_wal::record::ValueDelta;

/// An aggregate delta from a generator pair: Int, Float (an exact
/// eighth, so sums and their inverses cancel bit for bit), or the zero of
/// either type.
fn agg((kind, v): (u8, i64)) -> ValueDelta {
    match kind % 4 {
        0 => ValueDelta::Int(v),
        1 => ValueDelta::Float(v as f64 / 8.0),
        2 => ValueDelta::Int(0),
        _ => ValueDelta::Float(0.0),
    }
}

fn delta(group: i64, count: i64, aggs: &[(u8, i64)]) -> RowDelta {
    RowDelta { group: vec![Value::Int(group)], count, aggs: aggs.iter().copied().map(agg).collect() }
}

/// The zero aggregates of a view whose slots have `d`'s types.
fn zero_of(d: &RowDelta) -> Vec<ValueDelta> {
    d.aggs
        .iter()
        .map(|a| match a {
            ValueDelta::Int(_) => ValueDelta::Int(0),
            ValueDelta::Float(_) => ValueDelta::Float(0.0),
        })
        .collect()
}

fn aggs() -> impl Strategy<Value = Vec<(u8, i64)>> {
    prop::collection::vec((0u8..4, -1_000_000i64..1_000_000), 0..6)
}

proptest! {
    #[test]
    fn from_pairs_inverts_to_undo_pairs(group in -50i64..50, count in -3i64..4, a in aggs()) {
        let d = delta(group, count, &a);
        let back = RowDelta::from_pairs(d.group.clone(), zero_of(&d), &d.to_undo_pairs()).unwrap();
        prop_assert_eq!(back, d);
    }

    #[test]
    fn merging_an_inverse_undoes_a_merge(count in -3i64..4, a in aggs(), b in aggs()) {
        let base = delta(1, count, &a);
        let mut zero = base.clone();
        zero.merge(&base.inverse()).unwrap();
        prop_assert!(zero.is_noop());
        // A second delta with `base`'s slot types and `b`'s values.
        let values = b.iter().map(|&(_, v)| v).chain(std::iter::repeat(0));
        let shape: Vec<(u8, i64)> = a.iter().zip(values).map(|(&(kind, _), v)| (kind, v)).collect();
        let other = delta(1, -count, &shape);
        let mut d = base.clone();
        d.merge(&other).unwrap();
        d.merge(&other.inverse()).unwrap();
        prop_assert_eq!(d, base);
    }
}

#[test]
fn merge_refuses_mixed_types_arity_and_overflow() {
    let mut d = delta(1, 1, &[(0, 5)]);
    assert!(d.merge(&delta(1, 1, &[(1, 5)])).is_err(), "Int + Float");
    assert!(d.merge(&delta(1, 1, &[(0, 5), (0, 5)])).is_err(), "arity");
    assert!(d.merge(&delta(1, i64::MAX, &[(0, 0)])).is_err(), "count overflow");
}

/// Position 0 is COUNT_BIG, then the aggregates; zero deltas are left
/// out, so a balance update that keeps the row count logs one pair.
/// `from_pairs` reads the pairs back over the view's zero aggregates.
#[test]
fn undo_pairs_layout() {
    let delta = RowDelta {
        group: vec![],
        count: -1,
        aggs: vec![ValueDelta::Int(-7), ValueDelta::Float(0.0)],
    };
    let pairs = delta.to_undo_pairs();
    assert_eq!(pairs, vec![(0, ValueDelta::Int(-1)), (1, ValueDelta::Int(-7))]);
    let zero = vec![ValueDelta::Int(0), ValueDelta::Float(0.0)];
    assert_eq!(RowDelta::from_pairs(vec![], zero.clone(), &pairs).unwrap(), delta);
    let update = RowDelta { group: vec![], count: 0, aggs: vec![ValueDelta::Int(0), ValueDelta::Float(2.5)] };
    assert_eq!(update.to_undo_pairs(), vec![(2, ValueDelta::Float(2.5))]);
    // Mistyped and out-of-range pairs are refused.
    for bad in [(0, ValueDelta::Float(1.0)), (1, ValueDelta::Float(1.0)), (3, ValueDelta::Int(1))] {
        assert!(RowDelta::from_pairs(vec![], zero.clone(), &[bad]).is_err(), "{bad:?}");
    }
}
