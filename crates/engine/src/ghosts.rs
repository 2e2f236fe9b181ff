//! The ghost-cleanup work queue: group rows whose count dropped to zero
//! are unlinked lazily by [`crate::Database::run_ghost_cleanup`], and DML
//! paths enqueue candidates here at delete/undo time.
//!
//! One mutex guards one FIFO plus its membership set, which gives **dedup
//! at enqueue**: the same `(IndexId, key)` ghosted twice before a cleanup
//! sweep runs used to queue double work (and the backlog gauge
//! double-counted it); a key already queued is not queued again.
//! Membership is dropped at drain time, so a key re-ghosted *after* a
//! sweep picked it up is — correctly — queued again, and the cleanup pass
//! re-enqueueing a skipped locked group goes through the same dedup.

use parking_lot::Mutex;
use std::collections::{HashSet, VecDeque};
use txview_common::IndexId;

/// A ghost-cleanup candidate: index and group key.
pub type GhostKey = (IndexId, Vec<u8>);

#[derive(Default)]
struct Pending {
    /// FIFO of pending candidates.
    queue: VecDeque<GhostKey>,
    /// Keys currently sitting in `queue` (the dedup membership set).
    queued: HashSet<GhostKey>,
}

/// Deduplicating FIFO of ghost-cleanup candidates.
#[derive(Default)]
pub struct GhostQueue {
    pending: Mutex<Pending>,
}

impl GhostQueue {
    /// Empty queue.
    pub fn new() -> GhostQueue {
        GhostQueue::default()
    }

    /// Enqueue a candidate. Returns `false` (and queues nothing) if the
    /// key is already pending.
    pub fn enqueue(&self, index: IndexId, key: Vec<u8>) -> bool {
        let gk = (index, key);
        let mut p = self.pending.lock();
        if p.queued.insert(gk.clone()) {
            p.queue.push_back(gk);
            true
        } else {
            false
        }
    }

    /// Drain every pending candidate in FIFO order. Drained keys lose
    /// their membership, so a subsequent ghosting of the same key queues
    /// fresh work.
    pub fn drain(&self) -> Vec<GhostKey> {
        let mut p = self.pending.lock();
        p.queued.clear();
        p.queue.drain(..).collect()
    }

    /// Pending candidate count (the `engine.ghost_backlog` gauge).
    pub fn len(&self) -> usize {
        self.pending.lock().queue.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop everything (crash simulation: the queue is volatile; recovery
    /// re-derives cleanable ghosts from the recovered trees).
    pub fn clear(&self) {
        let mut p = self.pending.lock();
        p.queue.clear();
        p.queued.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDX: IndexId = IndexId(3);

    #[test]
    fn enqueue_dedups_until_drained() {
        let q = GhostQueue::new();
        assert!(q.enqueue(IDX, b"g1".to_vec()));
        assert!(!q.enqueue(IDX, b"g1".to_vec()), "duplicate rejected");
        assert!(q.enqueue(IDX, b"g2".to_vec()));
        assert_eq!(q.len(), 2);
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert!(q.is_empty());
        // After a drain the key may be ghosted anew.
        assert!(q.enqueue(IDX, b"g1".to_vec()));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn distinct_indexes_are_distinct_keys() {
        let q = GhostQueue::new();
        assert!(q.enqueue(IndexId(1), b"g".to_vec()));
        assert!(q.enqueue(IndexId(2), b"g".to_vec()));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_is_fifo() {
        let q = GhostQueue::new();
        let keys: Vec<GhostKey> =
            (0..100u64).rev().map(|i| (IDX, i.to_be_bytes().to_vec())).collect();
        for (index, key) in keys.iter().cloned() {
            assert!(q.enqueue(index, key));
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.drain(), keys);
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue_and_membership() {
        let q = GhostQueue::new();
        q.enqueue(IDX, b"g".to_vec());
        q.clear();
        assert!(q.is_empty());
        assert!(q.enqueue(IDX, b"g".to_vec()), "membership cleared too");
    }
}
