//! What one transaction owes its views, settled once at its commit: the
//! view rows it touched and its coalescing cascade queue ([`TxnViews`]).
//!
//! Every delta a transaction applies to a view with children projects one
//! [`RowDelta`] per child and enqueues it here, keyed by
//! `(depth, view, group-key bytes)`. A second delta for the same key
//! **merges** into the existing entry ([`RowDelta::merge`], the same
//! addition escrow maintenance runs on the stored rows), so however many
//! base mutations a transaction makes, each dirty `(view, group)` carries
//! exactly one net delta at commit.
//!
//! Commit drains the queue in ascending key order. Depth leads the key, so
//! the drain is a topological sweep: applying an entry at depth *d* may
//! enqueue its own children at depth > *d*, which the same drain consumes
//! later. Once an entry is popped it can never be re-created — every
//! producer of that view sits at a strictly smaller depth and has already
//! flushed — which is what makes the flush exactly-once per (view, group).

use std::collections::{BTreeMap, HashMap};
use txview_common::{Error, IndexId, Key, Result, Value, ViewId};
use txview_wal::record::ValueDelta;

/// How a transaction touched one view row, for version publication.
#[derive(Debug)]
pub enum Touch {
    /// Net commutative delta accumulated by this transaction, as
    /// `(position, delta)` pairs (position 0 is COUNT_BIG).
    Additive(Vec<(u16, ValueDelta)>),
    /// The row was modified under an exclusive lock (MIN/MAX rewrite,
    /// X-lock baseline full paths, eager removal): the physical value at
    /// commit time is a clean committed image.
    Exclusive,
}

/// Per-row touch records of one transaction, by view index, then by key:
/// a row already touched is found by its borrowed key bytes.
pub type TouchedRows = HashMap<IndexId, HashMap<Vec<u8>, Touch>>;

/// Everything one transaction owes its views. It lives in the transaction
/// itself: commit drains `cascades` and publishes `touched`, a rollback
/// drops both, and a savepoint rollback retracts the escrow deltas it
/// undoes from both.
#[derive(Debug, Default)]
pub struct TxnViews {
    /// View rows touched (for version publication at commit).
    pub touched: TouchedRows,
    /// Pending derived-view deltas, drained in dependency order by the
    /// commit flush.
    pub cascades: CascadeQueue,
}

/// Queue key: ascending-depth drain order, deterministic within a level.
type QueueKey = (u32, ViewId, Vec<u8>);

/// The one in-memory view-row delta: how a statement, a cascade or a
/// savepoint retraction changes one group's row. Deltas form one algebra:
/// [`RowDelta::merge`] is the addition, [`RowDelta::inverse`] the negation
/// and [`RowDelta::is_noop`] the zero test. The sparse `(position, delta)`
/// pairs of [`RowDelta::to_undo_pairs`] are its log and version-store form
/// only, and [`RowDelta::from_pairs`] reads them back.
#[derive(Clone, PartialEq, Debug)]
pub struct RowDelta {
    /// The group-by values (what the view key encodes).
    pub group: Vec<Value>,
    /// COUNT_BIG delta (+1 per qualifying inserted row, −1 per delete).
    pub count: i64,
    /// Per-aggregate deltas, one per view aggregate column. For MIN/MAX
    /// these carry the *contributing value* instead of an additive delta.
    pub aggs: Vec<ValueDelta>,
}

/// The name the `benchmark/` queue probe builds its entries with.
pub type PendingDelta = RowDelta;

impl RowDelta {
    /// The view key for this delta.
    pub fn key(&self) -> Key {
        Key::from_values(&self.group)
    }

    /// The inverse delta (rollback, savepoint retraction).
    pub fn inverse(&self) -> RowDelta {
        RowDelta {
            group: self.group.clone(),
            count: -self.count,
            aggs: self.aggs.iter().map(|d| d.inverse()).collect(),
        }
    }

    /// True when applying this delta changes nothing: zero count delta and
    /// every aggregate delta zero.
    pub fn is_noop(&self) -> bool {
        self.count == 0 && self.aggs.iter().all(|d| d.is_zero())
    }

    /// Add `other` into `self` (commutative, type-strict, overflow-checked).
    pub fn merge(&mut self, other: &RowDelta) -> Result<()> {
        if self.aggs.len() != other.aggs.len() {
            return Err(Error::corruption("row delta arity mismatch"));
        }
        self.count = self
            .count
            .checked_add(other.count)
            .ok_or_else(|| Error::invalid("row delta count overflow"))?;
        for (a, b) in self.aggs.iter_mut().zip(&other.aggs) {
            *a = a.checked_add(*b)?;
        }
        Ok(())
    }

    /// Flatten into the `(region position, delta)` pairs an escrow change
    /// logs once for redo and undo: position 0 is the count, positions 1..
    /// the aggregates. Zero deltas change nothing and are left out.
    pub fn to_undo_pairs(&self) -> Vec<(u16, ValueDelta)> {
        let all = std::iter::once(ValueDelta::Int(self.count)).chain(self.aggs.iter().copied());
        (0u16..).zip(all).filter(|(_, d)| !d.is_zero()).collect()
    }

    /// The inverse of [`RowDelta::to_undo_pairs`]: the delta of `group`
    /// whose aggregates start at `zero` (the view's zero aggregates, which
    /// fix each slot's type) and add `pairs`. A pair of the wrong type or
    /// outside the region is refused.
    pub fn from_pairs(
        group: Vec<Value>,
        zero: Vec<ValueDelta>,
        pairs: &[(u16, ValueDelta)],
    ) -> Result<RowDelta> {
        let mut delta = RowDelta { group, count: 0, aggs: zero };
        for &(pos, d) in pairs {
            match (pos, d) {
                (0, ValueDelta::Int(c)) => {
                    delta.count = delta
                        .count
                        .checked_add(c)
                        .ok_or_else(|| Error::invalid("row delta count overflow"))?;
                }
                (0, _) => return Err(Error::corruption("COUNT_BIG delta is not an Int")),
                (p, d) => {
                    let slot = delta
                        .aggs
                        .get_mut(p as usize - 1)
                        .ok_or_else(|| Error::corruption("escrow position out of range"))?;
                    *slot = slot.checked_add(d)?;
                }
            }
        }
        Ok(delta)
    }
}

/// What an enqueue did (the engine's coalesce-hit counter feeds off this).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// A fresh (view, group) entry was created.
    Inserted,
    /// The delta merged into an existing entry for the same key.
    Coalesced,
}

/// One transaction's pending cascade work.
#[derive(Default, Debug)]
pub struct CascadeQueue {
    entries: BTreeMap<QueueKey, RowDelta>,
}

impl CascadeQueue {
    /// Empty queue.
    pub fn new() -> CascadeQueue {
        CascadeQueue::default()
    }

    /// Enqueue (or merge) a delta for `(view, group)` at `depth`.
    /// `key_bytes` is the view row's encoded key — the dedup identity.
    pub fn enqueue(
        &mut self,
        depth: u32,
        view: ViewId,
        key_bytes: Vec<u8>,
        delta: RowDelta,
    ) -> Result<EnqueueOutcome> {
        match self.entries.entry((depth, view, key_bytes)) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut().merge(&delta)?;
                Ok(EnqueueOutcome::Coalesced)
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(delta);
                Ok(EnqueueOutcome::Inserted)
            }
        }
    }

    /// Merge an inverse delta into an existing entry, if present (savepoint
    /// undo retracts projected work the same way the version accumulator
    /// does). A missing entry is a no-op: the work was never enqueued (or
    /// already flushed and is being undone through its own log records).
    pub fn retract(
        &mut self,
        depth: u32,
        view: ViewId,
        key_bytes: &[u8],
        inverse: &RowDelta,
    ) -> Result<()> {
        if let Some(e) = self.entries.get_mut(&(depth, view, key_bytes.to_vec())) {
            e.merge(inverse)?;
        }
        Ok(())
    }

    /// Pop the shallowest pending entry (depth, then view id, then key) —
    /// the drain order of the commit flush.
    pub fn pop_first(&mut self) -> Option<(u32, ViewId, Vec<u8>, RowDelta)> {
        let key = self.entries.keys().next().cloned()?;
        let delta = self.entries.remove(&key)?;
        Some((key.0, key.1, key.2, delta))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(count: i64, agg: i64) -> RowDelta {
        RowDelta { group: vec![Value::Int(1)], count, aggs: vec![ValueDelta::Int(agg)] }
    }

    #[test]
    fn enqueue_coalesces_same_key() {
        let mut q = CascadeQueue::new();
        let out = q.enqueue(1, ViewId(2), vec![1], delta(1, 100)).unwrap();
        assert_eq!(out, EnqueueOutcome::Inserted);
        let out = q.enqueue(1, ViewId(2), vec![1], delta(1, 50)).unwrap();
        assert_eq!(out, EnqueueOutcome::Coalesced);
        assert_eq!(q.len(), 1);
        let (d, v, k, pd) = q.pop_first().unwrap();
        assert_eq!((d, v, k), (1, ViewId(2), vec![1]));
        assert_eq!(pd.count, 2);
        assert_eq!(pd.aggs, vec![ValueDelta::Int(150)]);
        assert!(q.is_empty());
    }

    #[test]
    fn distinct_groups_stay_distinct() {
        let mut q = CascadeQueue::new();
        q.enqueue(1, ViewId(2), vec![1], delta(1, 10)).unwrap();
        q.enqueue(1, ViewId(2), vec![2], delta(1, 20)).unwrap();
        q.enqueue(1, ViewId(3), vec![1], delta(1, 30)).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn drain_order_is_depth_view_key() {
        let mut q = CascadeQueue::new();
        q.enqueue(2, ViewId(9), vec![0], delta(1, 1)).unwrap();
        q.enqueue(1, ViewId(5), vec![7], delta(1, 2)).unwrap();
        q.enqueue(1, ViewId(5), vec![3], delta(1, 3)).unwrap();
        q.enqueue(1, ViewId(4), vec![9], delta(1, 4)).unwrap();
        let mut order = Vec::new();
        while let Some((d, v, k, _)) = q.pop_first() {
            order.push((d, v, k));
        }
        assert_eq!(
            order,
            vec![
                (1, ViewId(4), vec![9]),
                (1, ViewId(5), vec![3]),
                (1, ViewId(5), vec![7]),
                (2, ViewId(9), vec![0]),
            ]
        );
    }

    #[test]
    fn deeper_enqueue_during_drain_is_consumed() {
        let mut q = CascadeQueue::new();
        q.enqueue(1, ViewId(2), vec![1], delta(1, 5)).unwrap();
        let (d, ..) = q.pop_first().unwrap();
        assert_eq!(d, 1);
        // Applying the level-1 entry projects into level 2.
        q.enqueue(2, ViewId(3), vec![0], delta(1, 5)).unwrap();
        let (d, v, ..) = q.pop_first().unwrap();
        assert_eq!((d, v), (2, ViewId(3)));
        assert!(q.pop_first().is_none());
    }

    #[test]
    fn retract_nets_out_to_noop() {
        let mut q = CascadeQueue::new();
        q.enqueue(1, ViewId(2), vec![1], delta(1, 100)).unwrap();
        q.retract(1, ViewId(2), &[1], &delta(-1, -100)).unwrap();
        let (.., pd) = q.pop_first().unwrap();
        assert!(pd.is_noop(), "retracted entry must net to a no-op");
        // Retracting a missing key does nothing.
        q.retract(3, ViewId(8), &[9], &delta(-1, 0)).unwrap();
        assert!(q.is_empty());
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut q = CascadeQueue::new();
        q.enqueue(1, ViewId(2), vec![1], delta(1, 1)).unwrap();
        let bad = RowDelta {
            group: vec![Value::Int(1)],
            count: 1,
            aggs: vec![ValueDelta::Float(1.0)],
        };
        assert!(q.enqueue(1, ViewId(2), vec![1], bad).is_err());
    }
}
