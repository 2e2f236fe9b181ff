//! A multiversion store for snapshot readers, built around the escrow
//! insight: **committed increments commute**, so the version history of an
//! aggregate row is a base image plus a tail of commit-stamped entries. A
//! snapshot at LSN `s` reconstructs the row by replaying, over the base,
//! every tail entry with `commit_lsn <= s` — a *delta* adds to the image, a
//! *full image* replaces it — correct regardless of the order concurrent
//! committers published their entries, because addition is
//! order-independent.
//!
//! Full-image entries come from X-lock paths (MIN/MAX views, the X-lock
//! baseline, eager group deletion): the X lock serializes those writers, so
//! their physical row value *is* a clean committed image at publish time.
//!
//! **Fold rule (horizon-eager).** Every publish merges all entries of its
//! chain with `commit_lsn <= horizon` into the base, using a caller-supplied
//! materializer (the store is agnostic to row encoding). The horizon is the
//! commit watermark clipped by the oldest active snapshot, so no present or
//! future reader sits below it and no committer that has yet to publish
//! sits at or below it: a fold is the replay of a chain prefix that every
//! reader replays in full anyway, and nobody can tell it happened. A chain
//! holds only the versions some live snapshot can still distinguish, and a
//! read costs that many delta applications — there is no length threshold.
//!
//! **Directory layout.** Chains live under their index in one ordered map,
//! probed by borrowed key bytes. The map is behind a reader-writer lock that
//! is taken for writing only to add a chain; each chain has its own small
//! mutex. Readers and committers therefore share the map, a range read
//! walks it in key order, and a committer waits for a reader only while
//! both are on the same chain.

use parking_lot::{Mutex, RwLock};
use std::collections::btree_map::{BTreeMap, Entry};
use std::ops::Bound;
use std::sync::Arc;
use txview_common::obs::{Counter, Gauge, Histogram, Snapshot};
use txview_common::{IndexId, Lsn, Result};
use txview_wal::record::ValueDelta;

/// Version stamp of the pre-modification base image.
pub const BASE_VERSION: Lsn = Lsn(1);

/// Escrow delta pairs: (aggregate-region position, delta).
pub type DeltaPairs = Vec<(u16, ValueDelta)>;

/// One committed version event.
#[derive(Clone, Debug)]
enum Payload {
    /// A full row image (`None` = row absent/removed).
    Full(Option<Vec<u8>>),
    /// Commutative aggregate deltas relative to whatever precedes them.
    Delta(DeltaPairs),
}

#[derive(Clone, Debug)]
struct VersionEntry {
    commit_lsn: Lsn,
    payload: Payload,
}

/// Applies delta pairs to a (possibly absent) row image, producing the new
/// image. Supplied by the engine, which knows the row encoding. The image
/// is passed by value so the aggregates can be patched in place.
pub type Materializer<'a> =
    dyn Fn(Option<Vec<u8>>, &[(u16, ValueDelta)]) -> Result<Option<Vec<u8>>> + 'a;

/// A [`Materializer`] for a range of rows: it is also told the row's key,
/// which it needs only to build a row from absent.
pub type RangeMaterializer<'a> =
    dyn Fn(&[u8], Option<Vec<u8>>, &[(u16, ValueDelta)]) -> Result<Option<Vec<u8>>> + 'a;

/// A chain's key and the row image a snapshot sees there (`None` = absent).
pub type Resolved = (Vec<u8>, Option<Vec<u8>>);

/// One row's history: the committed image as of `base_lsn` plus the entries
/// not yet folded into it.
struct Chain {
    base_lsn: Lsn,
    base: Option<Vec<u8>>,
    /// Ordered by commit LSN, entries of one LSN in arrival order.
    /// Concurrent committers publish in nondeterministic order, and a fold
    /// absorbs a prefix: appending out of order would let it absorb a
    /// *newer* sibling and hide the older delta behind the base LSN.
    tail: Vec<VersionEntry>,
}

impl Chain {
    fn new(base: Option<Vec<u8>>) -> Chain {
        Chain { base_lsn: BASE_VERSION, base, tail: Vec::new() }
    }

    /// Entries including the base.
    fn len(&self) -> usize {
        1 + self.tail.len()
    }

    /// Add `entry` in LSN order, then fold every entry at or below
    /// `horizon` into the base. Returns how many were folded.
    fn publish(
        &mut self,
        entry: VersionEntry,
        horizon: Lsn,
        materialize: &Materializer<'_>,
    ) -> Result<usize> {
        let at = self.tail.partition_point(|e| e.commit_lsn <= entry.commit_lsn);
        self.tail.insert(at, entry);
        let folded = self.tail.partition_point(|e| e.commit_lsn <= horizon);
        for e in self.tail.drain(..folded) {
            self.base = match e.payload {
                Payload::Full(image) => image,
                Payload::Delta(pairs) => materialize(self.base.take(), &pairs)?,
            };
            self.base_lsn = self.base_lsn.max(e.commit_lsn);
        }
        Ok(folded)
    }

    /// The image visible at snapshot `s`: the base with the tail prefix at
    /// or below `s` replayed over it. A snapshot that predates the base
    /// (possible only below the fold horizon) sees the row as absent.
    fn resolve(
        &self,
        s: Lsn,
        materialize: impl Fn(Option<Vec<u8>>, &[(u16, ValueDelta)]) -> Result<Option<Vec<u8>>>,
    ) -> Result<Option<Vec<u8>>> {
        if s < self.base_lsn {
            return Ok(None);
        }
        let mut image = self.base.clone();
        for e in self.tail.iter().take_while(|e| e.commit_lsn <= s) {
            image = match &e.payload {
                Payload::Full(full) => full.clone(),
                Payload::Delta(pairs) => materialize(image, pairs)?,
            };
        }
        Ok(image)
    }
}

/// The chains of one index. The write lock is taken only to add a chain
/// (and held while its base image is read, see
/// [`VersionStore::ensure_base_with`]).
type Directory = RwLock<BTreeMap<Vec<u8>, Mutex<Chain>>>;

/// What the store reports about itself (`versions.*` in the engine's
/// metrics snapshot). An idle snapshot pinning the fold horizon shows as
/// `entries` and `chain_len` growing while `folds` stands still.
#[derive(Default)]
struct VersionObs {
    /// Entries held, bases included.
    entries: Gauge,
    /// Entries merged into their chain's base.
    folds: Counter,
    /// Chain length met by readers: one sample per point read, the longest
    /// chain of the range per range read.
    chain_len: Histogram,
}

/// The version store: one [`Directory`] per index. GC (folding) happens per
/// chain at publish, under the chain's lock.
#[derive(Default)]
pub struct VersionStore {
    indexes: RwLock<BTreeMap<IndexId, Arc<Directory>>>,
    obs: VersionObs,
}

impl VersionStore {
    /// Empty store.
    pub fn new() -> VersionStore {
        VersionStore::default()
    }

    /// The directory of `index`, if any of its rows has a chain.
    fn directory(&self, index: IndexId) -> Option<Arc<Directory>> {
        self.indexes.read().get(&index).cloned()
    }

    /// Run `f` on the chain of `(index, key)`, seeding it with
    /// `base()` first if the row has none.
    fn with_chain<R>(
        &self,
        index: IndexId,
        key: &[u8],
        base: impl FnOnce() -> Result<Option<Vec<u8>>>,
        f: impl FnOnce(&mut Chain) -> Result<R>,
    ) -> Result<R> {
        let dir = match self.directory(index) {
            Some(dir) => dir,
            None => self.indexes.write().entry(index).or_default().clone(),
        };
        if let Some(chain) = dir.read().get(key) {
            return f(&mut chain.lock());
        }
        let mut chains = dir.write();
        match chains.entry(key.to_vec()) {
            Entry::Occupied(e) => f(e.into_mut().get_mut()),
            Entry::Vacant(e) => {
                let chain = e.insert(Mutex::new(Chain::new(base()?)));
                self.obs.entries.add(1);
                f(chain.get_mut())
            }
        }
    }

    /// True if the row already has a chain (its base image is safeguarded).
    pub fn has_chain(&self, index: IndexId, key: &[u8]) -> bool {
        self.directory(index).is_some_and(|dir| dir.read().contains_key(key))
    }

    /// Record the pre-modification image of a row, computing it *inside*
    /// the store's critical section — the directory's write lock (see the
    /// engine: under escrow concurrency an unsynchronized read could
    /// capture another writer's uncommitted delta).
    pub fn ensure_base_with<F>(&self, index: IndexId, key: &[u8], read: F) -> Result<()>
    where
        F: FnOnce() -> Result<Option<Vec<u8>>>,
    {
        self.with_chain(index, key, read, |_| Ok(()))
    }

    /// Convenience base recording when the caller already has the clean
    /// image (row-creation path: the row did not exist).
    pub fn ensure_base(&self, index: IndexId, key: &[u8], value: Option<Vec<u8>>) {
        self.with_chain(index, key, || Ok(value), |_| Ok(())).expect("infallible closures");
    }

    /// Publish a committed escrow delta and fold the chain up to `horizon`
    /// (the fold horizon of the commit watermark, never above it: a base
    /// folded past a reader's snapshot would hide the row from it). A row
    /// without a chain starts from an absent base.
    pub fn publish_delta(
        &self,
        index: IndexId,
        key: &[u8],
        commit_lsn: Lsn,
        pairs: DeltaPairs,
        horizon: Lsn,
        materialize: &Materializer<'_>,
    ) -> Result<()> {
        let entry = VersionEntry { commit_lsn, payload: Payload::Delta(pairs) };
        self.publish(index, key, entry, horizon, materialize)
    }

    /// Publish a committed full image (X-lock paths; `None` = removed) and
    /// fold the chain up to `horizon`.
    pub fn publish_full(
        &self,
        index: IndexId,
        key: &[u8],
        commit_lsn: Lsn,
        value: Option<Vec<u8>>,
        horizon: Lsn,
        materialize: &Materializer<'_>,
    ) -> Result<()> {
        let entry = VersionEntry { commit_lsn, payload: Payload::Full(value) };
        self.publish(index, key, entry, horizon, materialize)
    }

    fn publish(
        &self,
        index: IndexId,
        key: &[u8],
        entry: VersionEntry,
        horizon: Lsn,
        materialize: &Materializer<'_>,
    ) -> Result<()> {
        let folded =
            self.with_chain(index, key, || Ok(None), |c| c.publish(entry, horizon, materialize))?;
        self.obs.entries.add(1 - folded as i64);
        self.obs.folds.add(folded as u64);
        Ok(())
    }

    /// Reconstruct the row image visible at snapshot `s`. Outer `None`
    /// means the row has no chain (never modified — read it directly);
    /// `Some(None)` means reconstruction says "row absent".
    pub fn read_at(
        &self,
        index: IndexId,
        key: &[u8],
        s: Lsn,
        materialize: &Materializer<'_>,
    ) -> Result<Option<Option<Vec<u8>>>> {
        let Some(dir) = self.directory(index) else {
            return Ok(None);
        };
        let chains = dir.read();
        let Some(chain) = chains.get(key) else {
            return Ok(None);
        };
        let chain = chain.lock();
        self.obs.chain_len.record(chain.len() as u64);
        chain.resolve(s, materialize).map(Some)
    }

    /// [`VersionStore::read_at`] for every chain of `index` with a key in
    /// `[lo, hi)`, as `(key, image)` in key order. Chains are locked one
    /// after the other — consistent per chain, fuzzy across chains, which
    /// is sound because every image is resolved at the reader's snapshot
    /// LSN and chains are never removed while readers exist.
    pub fn range_at(
        &self,
        index: IndexId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        s: Lsn,
        materialize: &RangeMaterializer<'_>,
    ) -> Result<Vec<Resolved>> {
        let mut out = Vec::new();
        let Some(dir) = self.directory(index) else {
            return Ok(out);
        };
        if lo.zip(hi).is_some_and(|(lo, hi)| lo >= hi) {
            return Ok(out);
        }
        let bounds = (
            lo.map_or(Bound::Unbounded, Bound::Included),
            hi.map_or(Bound::Unbounded, Bound::Excluded),
        );
        let mut longest = 0;
        for (key, chain) in dir.read().range::<[u8], _>(bounds) {
            let chain = chain.lock();
            longest = longest.max(chain.len());
            let image = chain.resolve(s, |image, pairs| materialize(key, image, pairs))?;
            out.push((key.clone(), image));
        }
        if longest > 0 {
            self.obs.chain_len.record(longest as u64);
        }
        Ok(out)
    }

    /// All keys with chains for one index (tests and probes; readers use
    /// [`VersionStore::range_at`]).
    pub fn keys_for(&self, index: IndexId) -> Vec<Vec<u8>> {
        self.directory(index).map_or_else(Vec::new, |dir| dir.read().keys().cloned().collect())
    }

    /// Drop everything (crash simulation: versions are volatile state).
    pub fn clear(&self) {
        self.indexes.write().clear();
        self.obs.entries.set(0);
    }

    /// The `versions.*` metrics.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.gauge("versions.entries", self.obs.entries.get());
        s.counter("versions.folds", self.obs.folds.get());
        s.hist("versions.chain_len", self.obs.chain_len.snapshot());
        s
    }

    /// Debug dump of a chain, base first: (commit_lsn, is_full,
    /// delta-pairs-if-any).
    #[doc(hidden)]
    pub fn debug_chain(&self, index: IndexId, key: &[u8]) -> Vec<(u64, bool, Option<DeltaPairs>)> {
        let Some(dir) = self.directory(index) else {
            return Vec::new();
        };
        let chains = dir.read();
        let Some(chain) = chains.get(key) else {
            return Vec::new();
        };
        let chain = chain.lock();
        let tail = chain.tail.iter().map(|e| match &e.payload {
            Payload::Full(_) => (e.commit_lsn.0, true, None),
            Payload::Delta(p) => (e.commit_lsn.0, false, Some(p.clone())),
        });
        std::iter::once((chain.base_lsn.0, true, None)).chain(tail).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IDX: IndexId = IndexId(1);
    /// A horizon below every commit: some snapshot still needs everything.
    const PINNED: Lsn = Lsn(0);

    /// Toy materializer: the "row" is one little-endian i64; deltas at
    /// position 0 add to it; absent rows materialize from 0.
    fn mat(base: Option<Vec<u8>>, pairs: &[(u16, ValueDelta)]) -> Result<Option<Vec<u8>>> {
        let mut v = base.map(|b| i64::from_le_bytes(b[..8].try_into().unwrap())).unwrap_or(0);
        for (pos, d) in pairs {
            assert_eq!(*pos, 0);
            if let ValueDelta::Int(x) = d {
                v += x;
            }
        }
        Ok(Some(v.to_le_bytes().to_vec()))
    }

    fn img(v: i64) -> Option<Vec<u8>> {
        Some(v.to_le_bytes().to_vec())
    }

    fn num(image: Option<Vec<u8>>) -> Option<i64> {
        image.map(|b| i64::from_le_bytes(b[..8].try_into().unwrap()))
    }

    fn read(vs: &VersionStore, s: u64) -> Option<i64> {
        num(vs.read_at(IDX, b"k", Lsn(s), &mat).unwrap().expect("chain exists"))
    }

    fn delta(x: i64) -> DeltaPairs {
        vec![(0, ValueDelta::Int(x))]
    }

    fn gauge(vs: &VersionStore, name: &str) -> i64 {
        vs.obs_snapshot().gauge_value(name).unwrap()
    }

    #[test]
    fn deltas_commute_out_of_order_publish() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", img(100));
        // T2 (lsn 20) publishes BEFORE T1 (lsn 10) — the race that breaks
        // value-based version chains. Both tickets are live, so the
        // horizon sits below both.
        vs.publish_delta(IDX, b"k", Lsn(20), delta(7), Lsn(9), &mat).unwrap();
        vs.publish_delta(IDX, b"k", Lsn(10), delta(5), Lsn(9), &mat).unwrap();
        assert_eq!(read(&vs, 5), Some(100));
        assert_eq!(read(&vs, 10), Some(105));
        assert_eq!(read(&vs, 19), Some(105));
        assert_eq!(read(&vs, 20), Some(112));
        assert_eq!(read(&vs, 99), Some(112));
    }

    #[test]
    fn snapshot_between_commits_sees_prefix() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", None);
        vs.publish_delta(IDX, b"k", Lsn(10), delta(1), PINNED, &mat).unwrap();
        vs.publish_delta(IDX, b"k", Lsn(30), delta(2), PINNED, &mat).unwrap();
        assert_eq!(read(&vs, 15), Some(1)); // materialized from absent = 0
        assert_eq!(read(&vs, 30), Some(3));
    }

    #[test]
    fn full_image_supersedes_prior_deltas() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", img(0));
        vs.publish_delta(IDX, b"k", Lsn(10), delta(5), PINNED, &mat).unwrap();
        vs.publish_full(IDX, b"k", Lsn(20), img(1000), PINNED, &mat).unwrap();
        vs.publish_delta(IDX, b"k", Lsn(30), delta(1), PINNED, &mat).unwrap();
        assert_eq!(read(&vs, 10), Some(5));
        assert_eq!(read(&vs, 20), Some(1000));
        assert_eq!(read(&vs, 30), Some(1001));
    }

    #[test]
    fn removal_then_recreation() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", img(5));
        vs.publish_full(IDX, b"k", Lsn(10), None, PINNED, &mat).unwrap(); // removed
        vs.publish_delta(IDX, b"k", Lsn(20), delta(3), PINNED, &mat).unwrap();
        assert_eq!(read(&vs, 5), Some(5));
        assert_eq!(read(&vs, 10), None, "absent at 10");
        assert_eq!(read(&vs, 20), Some(3)); // recreated from absent
    }

    /// With the horizon trailing one commit behind (the steady state under
    /// a write load without readers), a chain never holds more than its
    /// base and the entry just published.
    #[test]
    fn every_publish_folds_up_to_the_horizon() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", img(0));
        for i in 0..100u64 {
            vs.publish_delta(IDX, b"k", Lsn(10 + i), delta(1), Lsn(9 + i), &mat).unwrap();
            assert!(vs.debug_chain(IDX, b"k").len() <= 2);
        }
        assert_eq!(read(&vs, 1000), Some(100));
        assert_eq!(gauge(&vs, "versions.entries"), 2);
        assert_eq!(vs.obs_snapshot().counter_value("versions.folds"), Some(99));
    }

    /// A pinned horizon keeps every entry above it resolvable, however many
    /// arrive; once it moves, one publish folds them all.
    #[test]
    fn pinned_horizon_holds_the_tail_until_released() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", img(0));
        for i in 0..200u64 {
            vs.publish_delta(IDX, b"k", Lsn(10 + i), delta(1), Lsn(50), &mat).unwrap();
        }
        assert_eq!(read(&vs, 50), Some(41), "the pinned snapshot's own view");
        assert_eq!(read(&vs, 51), Some(42));
        assert_eq!(read(&vs, 1000), Some(200));
        assert_eq!(gauge(&vs, "versions.entries"), 1 + 200 - 41);
        vs.publish_delta(IDX, b"k", Lsn(300), delta(1), Lsn(299), &mat).unwrap();
        assert_eq!(vs.debug_chain(IDX, b"k").len(), 2);
        assert_eq!(read(&vs, 299), Some(200));
        assert_eq!(read(&vs, 300), Some(201));
        let h = vs.obs_snapshot().hist_value("versions.chain_len").unwrap().clone();
        assert_eq!(h.count(), 5, "one sample per read");
    }

    /// Regression: an out-of-order publish (older LSN arriving later) must
    /// not be lost to a fold — the tail is kept LSN-sorted so folds absorb
    /// the genuinely oldest entries.
    #[test]
    fn fold_after_out_of_order_publish_loses_nothing() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"k", img(0));
        // Newer commit publishes first...
        vs.publish_delta(IDX, b"k", Lsn(1000), delta(100), Lsn(998), &mat).unwrap();
        // ...then the older one lands...
        vs.publish_delta(IDX, b"k", Lsn(999), delta(1), Lsn(998), &mat).unwrap();
        // ...and later commits fold, with an active snapshot at 999
        // bounding the horizon.
        for i in 0..20 {
            vs.publish_delta(IDX, b"k", Lsn(2000 + i), delta(0), Lsn(999), &mat).unwrap();
        }
        assert_eq!(read(&vs, 998), None, "below the fold horizon: nobody reads here");
        assert_eq!(read(&vs, 999), Some(1), "older delta resolvable at the protected snapshot");
        assert_eq!(read(&vs, 1000), Some(101));
        assert_eq!(read(&vs, 1_000_000), Some(101), "nothing lost to folding");
    }

    #[test]
    fn no_chain_is_outer_none() {
        let vs = VersionStore::new();
        assert!(vs.read_at(IDX, b"nope", Lsn(5), &mat).unwrap().is_none());
        vs.ensure_base(IDX, b"k", None);
        assert!(vs.read_at(IDX, b"nope", Lsn(5), &mat).unwrap().is_none());
    }

    #[test]
    fn ensure_base_with_runs_once() {
        let vs = VersionStore::new();
        let mut calls = 0;
        vs.ensure_base_with(IDX, b"k", || {
            calls += 1;
            Ok(img(1))
        })
        .unwrap();
        vs.ensure_base_with(IDX, b"k", || {
            calls += 1;
            Ok(img(2))
        })
        .unwrap();
        assert_eq!(calls, 1);
        assert_eq!(read(&vs, 5), Some(1));
    }

    #[test]
    fn keys_for_lists_only_that_index() {
        let vs = VersionStore::new();
        vs.ensure_base(IDX, b"a", None);
        vs.ensure_base(IndexId(2), b"b", None);
        assert_eq!(vs.keys_for(IDX), vec![b"a".to_vec()]);
        assert!(vs.keys_for(IndexId(3)).is_empty());
    }

    /// A range read returns each key in range exactly once, in key order,
    /// resolved as a point read resolves it, and never a key of another
    /// index.
    #[test]
    fn range_read_matches_point_reads_in_key_order() {
        let vs = VersionStore::new();
        for i in 0..200u64 {
            let key = i.to_be_bytes();
            vs.ensure_base(IDX, &key, img(0));
            vs.publish_delta(IDX, &key, Lsn(10 + i), delta(i as i64), PINNED, &mat).unwrap();
            vs.ensure_base(IndexId(2), &key, img(-1));
        }
        let keyed = |_: &[u8], b: Option<Vec<u8>>, p: &[(u16, ValueDelta)]| mat(b, p);
        let (lo, hi) = (20u64.to_be_bytes(), 180u64.to_be_bytes());
        let got = vs.range_at(IDX, Some(&lo), Some(&hi), Lsn(109), &keyed).unwrap();
        let want: Vec<_> = (20..180u64)
            .map(|i| (i.to_be_bytes().to_vec(), img(if i < 100 { i as i64 } else { 0 })))
            .collect();
        assert_eq!(got, want);
        assert_eq!(vs.range_at(IDX, None, None, Lsn(109), &keyed).unwrap().len(), 200);
        assert_eq!(vs.range_at(IDX, Some(&hi), Some(&lo), Lsn(109), &keyed).unwrap(), vec![]);
        assert_eq!(vs.range_at(IndexId(3), None, None, Lsn(109), &keyed).unwrap(), vec![]);
        assert_eq!(vs.keys_for(IDX).len(), 200);
    }
}
