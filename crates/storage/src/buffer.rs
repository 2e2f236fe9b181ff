//! Buffer pool: fixed set of frames over a [`DiskManager`].
//!
//! * **steal / no-force** — dirty pages may be evicted before commit and are
//!   not forced at commit; recovery (in `txview-wal`) relies on this.
//! * **WAL-before-data** — before a dirty page image is written, the pool
//!   calls the registered WAL-flush hook with the page's pageLSN.
//! * **CLOCK eviction** with pin counts; per-frame `RwLock<Page>` serves as
//!   the page *latch* (short-term physical consistency), entirely separate
//!   from transaction *locks*.
//! * **crash simulation** — [`BufferPool::simulate_crash`] flushes a random
//!   subset of dirty pages (modelling steal having happened at arbitrary
//!   points) and then forgets everything, leaving the disk in exactly the
//!   kind of inconsistent state ARIES recovery must repair.

use crate::disk::DiskManager;
use crate::fault::CrashProbe;
use crate::page::{Page, PageType};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use txview_common::obs::{Histogram, ObsClock, Snapshot, StripedCounter};
use txview_common::retry::{RetryCounters, RetryPolicy, RetryStatsSnapshot};
use txview_common::rng::Rng;
use txview_common::{Error, Lsn, PageId, Result};

/// Hook invoked with a pageLSN just before that page is written to disk.
/// The WAL layer registers `|lsn| log.flush_to(lsn)` here.
pub type WalFlushFn = dyn Fn(Lsn) -> Result<()> + Send + Sync;

struct FrameState {
    pid: Option<PageId>,
    dirty: bool,
    /// ARIES recLSN: a lower bound on the LSN of the first log record that
    /// dirtied this page since it was last flushed (the page's pageLSN at
    /// the clean→dirty transition). Null while clean.
    rec_lsn: Lsn,
    pins: u32,
    refbit: bool,
}

/// Frame bookkeeping of one sub-pool. `map` values and `hand` are *local*
/// frame indexes (0..frames.len() within this sub-pool); the matching page
/// latch lives at `SubPool::base + local` in the pool-wide latch array.
struct PoolState {
    map: HashMap<PageId, usize>,
    frames: Vec<FrameState>,
    hand: usize,
}

/// One independently locked slice of the pool: its own residency map,
/// frame states, and CLOCK hand. Pages are routed to sub-pools by
/// `pid % n`, so concurrent fetches of different pages rarely contend.
struct SubPool {
    /// Offset of this sub-pool's first frame in the shared latch array.
    base: usize,
    state: Mutex<PoolState>,
}

/// The buffer pool. Cheap to share: wrap in `Arc`.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    latches: Vec<RwLock<Page>>,
    subs: Box<[SubPool]>,
    wal_flush: RwLock<Option<Arc<WalFlushFn>>>,
    crash_probe: RwLock<Option<Arc<CrashProbe>>>,
    retry: Mutex<RetryPolicy>,
    retry_counters: RetryCounters,
    obs: PoolObs,
}

/// Buffer-pool observability: residency hit rate, how far the CLOCK hand
/// travels per victim search, and how long dirty-page writes take (the
/// write-retry seam the fault harness exercises).
#[derive(Default)]
pub struct PoolObs {
    /// Time source; switched to a logical tick counter in deterministic runs.
    pub clock: ObsClock,
    /// Fetches served from a resident frame. Striped: this increment
    /// happens inside the pool's state lock on the hottest path in the
    /// system, so a single shared cache line would stretch the critical
    /// section by a full coherence miss.
    pub hits: StripedCounter,
    /// Fetches that had to read from disk.
    pub misses: StripedCounter,
    /// Frames examined per CLOCK victim search (refbit decay included).
    pub evict_scan: Histogram,
    /// Wall time of one dirty-frame write (WAL force + retried data write).
    pub write_us: Histogram,
}

impl BufferPool {
    /// Create a pool with `capacity` frames over `disk`. The frame state is
    /// split into `min(8, capacity / 64)` sub-pools (at least one), so small
    /// pools — including every fault-injection test that counts on exact
    /// single-CLOCK eviction order — keep the unsharded behavior, while the
    /// benchmark-sized pools stop serializing every fetch on one mutex.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Arc<BufferPool> {
        assert!(capacity > 0);
        let latches = (0..capacity)
            .map(|_| RwLock::new(Page::new(PageType::Free)))
            .collect();
        let n_subs = (capacity / 64).clamp(1, 8);
        let mut subs = Vec::with_capacity(n_subs);
        let mut base = 0;
        for i in 0..n_subs {
            let size = capacity / n_subs + usize::from(i < capacity % n_subs);
            let frames = (0..size)
                .map(|_| FrameState {
                    pid: None,
                    dirty: false,
                    rec_lsn: Lsn::NULL,
                    pins: 0,
                    refbit: false,
                })
                .collect();
            subs.push(SubPool {
                base,
                state: Mutex::new(PoolState { map: HashMap::new(), frames, hand: 0 }),
            });
            base += size;
        }
        debug_assert_eq!(base, capacity);
        Arc::new(BufferPool {
            disk,
            latches,
            subs: subs.into_boxed_slice(),
            wal_flush: RwLock::new(None),
            crash_probe: RwLock::new(None),
            retry: Mutex::new(RetryPolicy::default()),
            retry_counters: RetryCounters::default(),
            obs: PoolObs::default(),
        })
    }

    /// The sub-pool a page is routed to. Round-robin on the raw page id:
    /// B-tree pages are allocated sequentially, so a hot working set spreads
    /// evenly across sub-pools.
    fn sub_of(&self, pid: PageId) -> usize {
        pid.0 as usize % self.subs.len()
    }

    /// Number of sub-pools (exposed for tests and observability).
    pub fn sub_pool_count(&self) -> usize {
        self.subs.len()
    }

    /// Replace the transient-I/O retry policy (e.g. the torture harness
    /// installs a zero-delay policy, since injected faults clear by event
    /// count rather than elapsed time).
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Retry telemetry for the page-I/O seam.
    pub fn io_retry_stats(&self) -> RetryStatsSnapshot {
        self.retry_counters.snapshot()
    }

    /// Register the WAL-before-data hook.
    pub fn set_wal_flush(&self, f: Arc<WalFlushFn>) {
        *self.wal_flush.write() = Some(f);
    }

    /// Register a crash-point probe, invoked between "WAL flushed" and
    /// "data page written" on every dirty-page flush (eviction, flush_all,
    /// checkpoint). The torture harness uses this to land crashes inside
    /// the steal/no-force window.
    pub fn set_crash_probe(&self, f: Arc<CrashProbe>) {
        *self.crash_probe.write() = Some(f);
    }

    fn probe(&self, point: &'static str) {
        let hook = self.crash_probe.read().clone();
        if let Some(f) = hook {
            f(point);
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.latches.len()
    }

    fn flush_wal_to(&self, lsn: Lsn) -> Result<()> {
        if lsn.is_null() {
            return Ok(());
        }
        let hook = self.wal_flush.read().clone();
        if let Some(f) = hook {
            f(lsn)?;
        }
        Ok(())
    }

    /// Write one frame's page to disk, honouring WAL-before-data. The
    /// physical write retries transient faults under the pool's
    /// [`RetryPolicy`]; on failure the frame keeps its `dirty` flag and
    /// `rec_lsn` (set *after* a successful write only), so no update is
    /// silently lost — the next eviction or flush simply tries again.
    /// Caller holds the owning sub-pool's state mutex (`base` is that
    /// sub-pool's latch offset, `idx` the local frame index); the frame must
    /// be unpinned or the caller must otherwise guarantee latch availability.
    fn write_frame(&self, base: usize, idx: usize, st: &mut PoolState) -> Result<()> {
        let pid = st.frames[idx].pid.expect("write_frame on empty frame");
        // Uncontended: pins == 0 or caller owns the only pin and no latch.
        self.write_image(pid, &mut self.latches[base + idx].write())?;
        st.frames[idx].dirty = false;
        st.frames[idx].rec_lsn = Lsn::NULL;
        Ok(())
    }

    /// Write `page` (latched by the caller) to disk as `pid`: WAL first,
    /// then the data write, retried under the pool's policy.
    fn write_image(&self, pid: PageId, page: &mut Page) -> Result<()> {
        let t0 = self.obs.clock.now();
        self.flush_wal_to(page.lsn())?;
        self.probe("buffer.write_frame.pre_data_write");
        let policy = *self.retry.lock();
        policy.run(&self.retry_counters, || self.disk.write_page(pid, page))?;
        self.obs.write_us.record(self.obs.clock.now().saturating_sub(t0));
        Ok(())
    }

    /// Read a page from disk, absorbing transient faults under the pool's
    /// retry policy. A checksum failure triggers exactly one re-read before
    /// being escalated to corruption: a garbled bus transfer is transient,
    /// a torn platter image is not, and the second read tells them apart.
    fn read_page_resilient(&self, pid: PageId) -> Result<Page> {
        let policy = *self.retry.lock();
        policy.run(&self.retry_counters, || match self.disk.read_page(pid) {
            Err(Error::Corruption(first)) => match self.disk.read_page(pid) {
                Ok(page) => {
                    self.retry_counters.retries.fetch_add(1, Ordering::Relaxed);
                    Ok(page)
                }
                Err(_) => Err(Error::Corruption(first)),
            },
            r => r,
        })
    }

    /// One CLOCK sweep over unpinned frames. With `allow_dirty = false`
    /// only clean frames are candidates (and only their refbits decay), so
    /// reads can keep landing frames while the write path is degraded.
    fn clock_sweep(&self, st: &mut PoolState, allow_dirty: bool) -> Option<usize> {
        let n = st.frames.len();
        // Two full sweeps: first clears refbits, second takes candidates.
        for step in 0..2 * n + 1 {
            let idx = st.hand;
            st.hand = (st.hand + 1) % n;
            let f = &mut st.frames[idx];
            if f.pins > 0 || (f.dirty && !allow_dirty) {
                continue;
            }
            if f.refbit {
                f.refbit = false;
                continue;
            }
            self.obs.evict_scan.record(step as u64 + 1);
            return Some(idx);
        }
        self.obs.evict_scan.record(2 * n as u64 + 1);
        None
    }

    /// Find a victim frame with CLOCK within one sub-pool, flushing it if
    /// dirty. Clean frames are preferred: evicting one needs no disk write,
    /// which both avoids an unnecessary flush and keeps the read path alive
    /// when the write path is failing. Returns the local frame index with
    /// its state cleared and pinned once for the caller.
    fn take_victim(&self, base: usize, st: &mut PoolState, for_pid: PageId) -> Result<usize> {
        let idx = match self.clock_sweep(st, false) {
            Some(idx) => idx,
            None => self.clock_sweep(st, true).ok_or(Error::BufferExhausted)?,
        };
        if st.frames[idx].dirty {
            self.write_frame(base, idx, st)?;
        }
        let f = &mut st.frames[idx];
        if let Some(old) = f.pid.take() {
            st.map.remove(&old);
        }
        f.dirty = false;
        f.rec_lsn = Lsn::NULL;
        f.pins = 1;
        f.refbit = true;
        f.pid = Some(for_pid);
        st.map.insert(for_pid, idx);
        Ok(idx)
    }

    /// Fetch `pid` into the pool, pinning it.
    pub fn fetch(self: &Arc<Self>, pid: PageId) -> Result<PinnedPage> {
        let sub = self.sub_of(pid);
        let base = self.subs[sub].base;
        let mut st = self.subs[sub].state.lock();
        if let Some(&idx) = st.map.get(&pid) {
            let f = &mut st.frames[idx];
            f.pins += 1;
            f.refbit = true;
            self.obs.hits.inc();
            return Ok(PinnedPage { pool: Arc::clone(self), sub, local: idx, pid });
        }
        self.obs.misses.inc();
        let idx = self.take_victim(base, &mut st, pid)?;
        // Read from disk while holding the sub-pool's state lock: simple and
        // safe (frame is pinned so nothing else will touch it), and fetches
        // routed to other sub-pools proceed in parallel.
        match self.read_page_resilient(pid) {
            Ok(page) => {
                *self.latches[base + idx].write() = page;
                Ok(PinnedPage { pool: Arc::clone(self), sub, local: idx, pid })
            }
            Err(e) => {
                // Back out the reservation.
                let f = &mut st.frames[idx];
                f.pid = None;
                f.pins = 0;
                st.map.remove(&pid);
                Err(e)
            }
        }
    }

    /// Allocate a fresh page of type `ty`, pinned and dirty.
    pub fn new_page(self: &Arc<Self>, ty: PageType) -> Result<(PageId, PinnedPage)> {
        let pid = self.disk.allocate()?;
        let sub = self.sub_of(pid);
        let base = self.subs[sub].base;
        let mut st = self.subs[sub].state.lock();
        let idx = self.take_victim(base, &mut st, pid)?;
        st.frames[idx].dirty = true;
        st.frames[idx].rec_lsn = Lsn::NULL;
        *self.latches[base + idx].write() = Page::new(ty);
        Ok((pid, PinnedPage { pool: Arc::clone(self), sub, local: idx, pid }))
    }

    /// Re-create page `pid` in the pool with a fresh image (recovery redo of
    /// a page-format record for a page the disk never saw). Pinned + dirty.
    pub fn recreate_page(self: &Arc<Self>, pid: PageId, ty: PageType) -> Result<PinnedPage> {
        self.disk.ensure_allocated(pid);
        let sub = self.sub_of(pid);
        let base = self.subs[sub].base;
        let mut st = self.subs[sub].state.lock();
        if let Some(&idx) = st.map.get(&pid) {
            let f = &mut st.frames[idx];
            f.pins += 1;
            f.dirty = true;
            f.rec_lsn = Lsn::NULL;
            *self.latches[base + idx].write() = Page::new(ty);
            return Ok(PinnedPage { pool: Arc::clone(self), sub, local: idx, pid });
        }
        let idx = self.take_victim(base, &mut st, pid)?;
        st.frames[idx].dirty = true;
        st.frames[idx].rec_lsn = Lsn::NULL;
        *self.latches[base + idx].write() = Page::new(ty);
        Ok(PinnedPage { pool: Arc::clone(self), sub, local: idx, pid })
    }

    /// Fetch `pid`, creating a fresh image if the disk has never stored it.
    /// Used by recovery redo, where a logged page may have died unflushed.
    pub fn fetch_or_recreate(self: &Arc<Self>, pid: PageId, ty: PageType) -> Result<PinnedPage> {
        match self.fetch(pid) {
            Ok(p) => Ok(p),
            Err(Error::NotFound(_))
            | Err(Error::Io(_))
            | Err(Error::IoTransient(_))
            | Err(Error::Corruption(_)) => self.recreate_page(pid, ty),
            Err(e) => Err(e),
        }
    }

    /// Flush every dirty resident page (checkpoint helper). Sub-pools are
    /// visited in fixed order; this is fuzzy across sub-pools in exactly the
    /// way a checkpoint is fuzzy across pages — each write individually
    /// honours WAL-before-data, which is all recovery needs.
    pub fn flush_all(&self) -> Result<()> {
        for sub in self.subs.iter() {
            let mut st = sub.state.lock();
            for idx in 0..st.frames.len() {
                if st.frames[idx].pid.is_some() && st.frames[idx].dirty {
                    self.write_frame(sub.base, idx, &mut st)?;
                }
            }
        }
        self.disk.sync()
    }

    /// Write back every dirty frame whose recLSN is null: a page allocated
    /// (or recreated) and not written since, whose first log record the
    /// pool cannot name. A checkpoint calls this before its dirty-page
    /// snapshot, so a null recLSN in that snapshot belongs to a page
    /// dirtied after the checkpoint began.
    ///
    /// Unlike `flush_all`, this is safe beside running transactions: each
    /// frame is pinned, then written under its exclusive latch taken
    /// *before* the sub-pool mutex — the order `PinnedPage::write` uses —
    /// so a frame a writer holds is waited for, not deadlocked on.
    pub fn write_back_unanchored(self: &Arc<Self>) -> Result<()> {
        let mut wrote = false;
        for (sub, sub_pool) in self.subs.iter().enumerate() {
            let unanchored: Vec<(usize, PageId)> = {
                let st = sub_pool.state.lock();
                (st.frames.iter().enumerate())
                    .filter(|(_, f)| f.dirty && f.rec_lsn.is_null())
                    .filter_map(|(local, f)| Some((local, f.pid?)))
                    .collect()
            };
            for (local, pid) in unanchored {
                let pinned = {
                    let mut st = sub_pool.state.lock();
                    if st.frames[local].pid != Some(pid) {
                        continue; // evicted (and so written) meanwhile
                    }
                    st.frames[local].pins += 1;
                    PinnedPage { pool: Arc::clone(self), sub, local, pid }
                };
                let mut page = pinned.latch().write();
                let still_unanchored = {
                    let st = sub_pool.state.lock();
                    st.frames[local].dirty && st.frames[local].rec_lsn.is_null()
                };
                if still_unanchored {
                    self.write_image(pid, &mut page)?;
                    let mut st = sub_pool.state.lock();
                    st.frames[local].dirty = false;
                    wrote = true;
                }
            }
        }
        if wrote {
            self.disk.sync()?;
        }
        Ok(())
    }

    /// (page, recLSN) of currently dirty resident pages — the dirty-page
    /// table a fuzzy checkpoint records. The recLSN is where redo for that
    /// page must start. Sub-pools are scanned in fixed order; the result is
    /// conservative in the usual fuzzy-checkpoint sense (a page flushed
    /// concurrently may still be listed, which only moves redo earlier).
    pub fn dirty_pages(&self) -> Vec<(PageId, Lsn)> {
        let mut out = Vec::new();
        for sub in self.subs.iter() {
            let st = sub.state.lock();
            for f in st.frames.iter() {
                if let (Some(pid), true) = (f.pid, f.dirty) {
                    out.push((pid, f.rec_lsn));
                }
            }
        }
        out
    }

    /// Crash simulation: flush each dirty page with probability
    /// `steal_probability` (modelling evictions that already happened),
    /// then forget all frames. Requires no outstanding pins. Frames are
    /// visited sub-pool-major in fixed order, so a given seed still yields
    /// a deterministic steal set.
    pub fn simulate_crash(&self, steal_probability: f64, rng: &mut Rng) -> Result<()> {
        for sub in self.subs.iter() {
            let mut st = sub.state.lock();
            for idx in 0..st.frames.len() {
                let f = &st.frames[idx];
                assert_eq!(f.pins, 0, "simulate_crash with pinned pages");
                if f.pid.is_some() && f.dirty && rng.chance(steal_probability) {
                    self.write_frame(sub.base, idx, &mut st)?;
                }
            }
            for f in st.frames.iter_mut() {
                f.pid = None;
                f.dirty = false;
                f.rec_lsn = Lsn::NULL;
                f.refbit = false;
            }
            st.map.clear();
        }
        Ok(())
    }

    /// Buffer-pool observability handles (clock switching, direct reads).
    pub fn obs(&self) -> &PoolObs {
        &self.obs
    }

    /// Point-in-time metrics snapshot of the pool, `pool.*`-namespaced.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.counter("pool.hits", self.obs.hits.get());
        s.counter("pool.misses", self.obs.misses.get());
        let retry = self.retry_counters.snapshot();
        s.counter("pool.io_retries", retry.retries);
        s.counter("pool.io_exhausted", retry.exhausted);
        s.gauge("pool.dirty_frames", self.dirty_pages().len() as i64);
        s.hist("pool.evict_scan", self.obs.evict_scan.snapshot());
        s.hist("pool.write_us", self.obs.write_us.snapshot());
        s.sort();
        s
    }
}

/// Read latch guard.
pub type PageReadGuard<'a> = RwLockReadGuard<'a, Page>;
/// Write latch guard.
pub type PageWriteGuard<'a> = RwLockWriteGuard<'a, Page>;

/// A pinned page. Dropping unpins. `read()`/`write()` take the page latch.
pub struct PinnedPage {
    pool: Arc<BufferPool>,
    /// Index of the owning sub-pool.
    sub: usize,
    /// Frame index local to that sub-pool.
    local: usize,
    pid: PageId,
}

impl PinnedPage {
    /// The page id.
    pub fn id(&self) -> PageId {
        self.pid
    }

    fn latch(&self) -> &RwLock<Page> {
        &self.pool.latches[self.pool.subs[self.sub].base + self.local]
    }

    /// Take the shared (read) latch.
    pub fn read(&self) -> PageReadGuard<'_> {
        self.latch().read()
    }

    /// Take the exclusive (write) latch and mark the frame dirty, recording
    /// the recLSN (the pageLSN before this modification) at the clean→dirty
    /// transition. Latch-then-state order is safe: state→latch paths only
    /// touch unpinned frames, and this frame is pinned.
    pub fn write(&self) -> PageWriteGuard<'_> {
        let guard = self.latch().write();
        {
            let mut st = self.pool.subs[self.sub].state.lock();
            let f = &mut st.frames[self.local];
            if !f.dirty {
                f.dirty = true;
                f.rec_lsn = guard.lsn();
            }
        }
        guard
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        let mut st = self.pool.subs[self.sub].state.lock();
        let f = &mut st.frames[self.local];
        debug_assert!(f.pins > 0);
        f.pins -= 1;
    }
}

impl Clone for PinnedPage {
    fn clone(&self) -> Self {
        let mut st = self.pool.subs[self.sub].state.lock();
        st.frames[self.local].pins += 1;
        PinnedPage { pool: Arc::clone(&self.pool), sub: self.sub, local: self.local, pid: self.pid }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn pool(cap: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemDisk::new()), cap)
    }

    #[test]
    fn new_page_fetch_roundtrip() {
        let p = pool(4);
        let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().payload_mut()[0] = 0x5A;
        drop(page);
        let again = p.fetch(pid).unwrap();
        assert_eq!(again.read().payload()[0], 0x5A);
    }

    #[test]
    fn eviction_and_reload() {
        let p = pool(2);
        let mut pids = Vec::new();
        for i in 0..5u8 {
            let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
            page.write().payload_mut()[0] = i;
            pids.push(pid);
        }
        // All five pages must still be readable (three were evicted).
        for (i, pid) in pids.iter().enumerate() {
            let page = p.fetch(*pid).unwrap();
            assert_eq!(page.read().payload()[0], i as u8);
        }
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let (pid_a, a) = p.new_page(PageType::BTreeLeaf).unwrap();
        let (_pid_b, b) = p.new_page(PageType::BTreeLeaf).unwrap();
        // Both frames pinned: a third page cannot enter.
        assert!(matches!(p.new_page(PageType::BTreeLeaf), Err(Error::BufferExhausted)));
        drop(b);
        // Now one frame is evictable.
        let (_pid_c, _c) = p.new_page(PageType::BTreeLeaf).unwrap();
        // `a` is still resident and correct.
        assert_eq!(p.fetch(pid_a).unwrap().id(), a.id());
    }

    #[test]
    fn wal_hook_called_before_dirty_write() {
        let p = pool(1);
        let called = Arc::new(AtomicU64::new(u64::MAX));
        let c2 = Arc::clone(&called);
        p.set_wal_flush(Arc::new(move |lsn| {
            c2.store(lsn.0, Ordering::SeqCst);
            Ok(())
        }));
        let (_pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().set_lsn(Lsn(99));
        drop(page);
        // Force eviction by allocating another page into the single frame.
        let (_pid2, _page2) = p.new_page(PageType::BTreeLeaf).unwrap();
        assert_eq!(called.load(Ordering::SeqCst), 99);
    }

    #[test]
    fn flush_all_clears_dirty_set() {
        let p = pool(4);
        let (_p1, g1) = p.new_page(PageType::BTreeLeaf).unwrap();
        g1.write().set_lsn(Lsn(1));
        drop(g1);
        assert_eq!(p.dirty_pages().len(), 1);
        p.flush_all().unwrap();
        assert!(p.dirty_pages().is_empty());
    }

    #[test]
    fn write_back_unanchored_writes_only_null_rec_lsn_frames() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 4);
        let (old, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().set_lsn(Lsn(5));
        drop(page);
        p.flush_all().unwrap();
        p.fetch(old).unwrap().write().set_lsn(Lsn(6)); // recLSN 5
        // A fresh page, still pinned by its allocator: null recLSN.
        let (new, pinned) = p.new_page(PageType::BTreeLeaf).unwrap();
        {
            let mut g = pinned.write();
            g.payload_mut()[0] = 0x42;
            g.set_lsn(Lsn(3));
        }
        assert!(disk.read_page(new).is_err(), "no disk image yet");
        p.write_back_unanchored().unwrap();
        assert_eq!(p.dirty_pages(), vec![(old, Lsn(5))], "anchored frame untouched");
        assert_eq!(disk.read_page(new).unwrap().payload()[0], 0x42);
        // Dirtied again, it takes an ordinary recLSN: its pageLSN.
        pinned.write().set_lsn(Lsn(7));
        assert!(p.dirty_pages().contains(&(new, Lsn(3))));
    }

    #[test]
    fn simulate_crash_loses_unflushed_writes() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 4);
        let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().payload_mut()[0] = 7;
        drop(page);
        let mut rng = Rng::new(1);
        p.simulate_crash(0.0, &mut rng).unwrap(); // steal probability 0: nothing flushed
        // Disk never saw the page.
        assert!(disk.read_page(pid).is_err());
        // And recovery-style access recreates a fresh image.
        let page = p.fetch_or_recreate(pid, PageType::BTreeLeaf).unwrap();
        assert_eq!(page.read().payload()[0], 0);
    }

    #[test]
    fn simulate_crash_with_full_steal_preserves_writes() {
        let p = pool(4);
        let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().payload_mut()[0] = 7;
        drop(page);
        let mut rng = Rng::new(1);
        p.simulate_crash(1.0, &mut rng).unwrap();
        let page = p.fetch(pid).unwrap();
        assert_eq!(page.read().payload()[0], 7);
    }

    #[test]
    fn clone_pin_keeps_frame() {
        let p = pool(1);
        let (_pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        let second = page.clone();
        drop(page);
        // Still pinned by `second`, so a new page cannot take the frame.
        assert!(p.new_page(PageType::BTreeLeaf).is_err());
        drop(second);
        assert!(p.new_page(PageType::BTreeLeaf).is_ok());
    }

    #[test]
    fn transient_eviction_failure_keeps_frame_dirty_with_rec_lsn() {
        use crate::fault::{FaultClock, FaultDisk, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let disk = Arc::new(FaultDisk::new(Arc::clone(&clock)));
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 1);
        p.set_retry_policy(RetryPolicy::no_delay(1)); // no retry: fault must surface
        let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        {
            let mut g = page.write();
            g.payload_mut()[0] = 0xEE;
            g.set_lsn(Lsn(5));
        }
        drop(page);
        p.flush_all().unwrap();
        // Re-dirty the (clean, resident) page: rec_lsn records the page's
        // LSN at the clean→dirty transition, i.e. Lsn(5).
        let page = p.fetch(pid).unwrap();
        page.write().set_lsn(Lsn(6));
        drop(page);
        assert_eq!(p.dirty_pages(), vec![(pid, Lsn(5))]);
        // Next disk write fails transiently: the eviction must error out...
        clock.arm(&FaultSchedule { faults: vec![(0, FaultKind::Transient)] });
        let err = match p.new_page(PageType::BTreeLeaf) {
            Err(e) => e,
            Ok(_) => panic!("eviction with a faulted write must fail"),
        };
        assert!(matches!(err, Error::IoTransient(_)), "got {err:?}");
        // ...and the frame must still be dirty with its recLSN intact — the
        // update is not silently lost.
        assert_eq!(p.dirty_pages(), vec![(pid, Lsn(5))]);
        // Once the fault clears, the next eviction succeeds and the page
        // lands on disk with the dirtied image.
        let (_pid2, _g2) = p.new_page(PageType::BTreeLeaf).unwrap();
        assert!(p.dirty_pages().iter().all(|&(d, _)| d != pid));
        assert_eq!(disk.read_page(pid).unwrap().lsn(), Lsn(6));
    }

    #[test]
    fn retry_absorbs_transient_burst_on_eviction() {
        use crate::fault::{FaultClock, FaultDisk, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let disk = Arc::new(FaultDisk::new(Arc::clone(&clock)));
        let p = BufferPool::new(disk as Arc<dyn DiskManager>, 1);
        p.set_retry_policy(RetryPolicy::no_delay(5));
        let (_pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().payload_mut()[0] = 1;
        drop(page);
        // Three consecutive transient faults on the write seam: within the
        // 5-attempt budget, so the caller never sees them.
        clock.arm(&FaultSchedule {
            faults: vec![
                (0, FaultKind::Transient),
                (1, FaultKind::Transient),
                (2, FaultKind::Transient),
            ],
        });
        let (_pid2, _g2) = p.new_page(PageType::BTreeLeaf).unwrap();
        let snap = p.io_retry_stats();
        assert_eq!(snap.retries, 3);
        assert_eq!(snap.exhausted, 0);
        assert_eq!(clock.stats().transient_faults, 3);
    }

    #[test]
    fn clean_victims_preferred_so_reads_survive_a_dead_write_path() {
        use crate::fault::{FaultClock, FaultDisk, FaultSchedule};
        let clock = FaultClock::new();
        let disk = Arc::new(FaultDisk::new(Arc::clone(&clock)));
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 2);
        let (pid_a, a) = p.new_page(PageType::BTreeLeaf).unwrap();
        a.write().set_lsn(Lsn(1));
        drop(a);
        let (pid_b, b) = p.new_page(PageType::BTreeLeaf).unwrap();
        drop(b);
        let (pid_c, c) = p.new_page(PageType::BTreeLeaf).unwrap();
        drop(c);
        p.flush_all().unwrap();
        // Dirty A; the other resident frame stays clean.
        let a = p.fetch(pid_a).unwrap();
        a.write().set_lsn(Lsn(9));
        drop(a);
        // Kill the write path for good. Reads are not faulted, so fetches
        // of non-resident pages must keep working by evicting clean frames
        // instead of trying (and failing) to flush A.
        clock.arm(&FaultSchedule::persistent_at(0));
        drop(p.fetch(pid_b).unwrap());
        drop(p.fetch(pid_c).unwrap());
        assert_eq!(p.dirty_pages(), vec![(pid_a, Lsn(1))], "A never forced out");
        // Strongest form of the claim: the fetches never even attempted a
        // write, so the armed outage never activated.
        assert_eq!(clock.stats().persistent_faults, 0);
        clock.disarm();
        p.flush_all().unwrap();
        assert!(p.dirty_pages().is_empty());
    }

    #[test]
    fn checksum_failure_gets_one_reread_before_escalating() {
        use crate::disk::MemDisk;
        use std::sync::atomic::AtomicBool;

        /// Disk whose next read returns a checksum failure once — the
        /// platter image is fine, only the transfer was garbled.
        struct FlakyRead {
            inner: MemDisk,
            fail_next: AtomicBool,
        }
        impl DiskManager for FlakyRead {
            fn read_page(&self, pid: PageId) -> Result<Page> {
                if self.fail_next.swap(false, Ordering::SeqCst) {
                    return Err(Error::corruption("garbled transfer"));
                }
                self.inner.read_page(pid)
            }
            fn write_page(&self, pid: PageId, page: &mut Page) -> Result<()> {
                self.inner.write_page(pid, page)
            }
            fn allocate(&self) -> Result<PageId> {
                self.inner.allocate()
            }
            fn num_pages(&self) -> u32 {
                self.inner.num_pages()
            }
            fn ensure_allocated(&self, pid: PageId) {
                self.inner.ensure_allocated(pid)
            }
            fn sync(&self) -> Result<()> {
                self.inner.sync()
            }
        }

        let disk = Arc::new(FlakyRead { inner: MemDisk::new(), fail_next: AtomicBool::new(false) });
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 1);
        let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        page.write().payload_mut()[0] = 0x77;
        drop(page);
        p.flush_all().unwrap();
        // Evict pid (clean, no write) by bringing in another page.
        let (_p2, g2) = p.new_page(PageType::BTreeLeaf).unwrap();
        drop(g2);
        disk.fail_next.store(true, Ordering::SeqCst);
        // The single re-read rescues the fetch.
        let page = p.fetch(pid).unwrap();
        assert_eq!(page.read().payload()[0], 0x77);
        assert_eq!(p.io_retry_stats().retries, 1);
    }

    #[test]
    fn obs_snapshot_tracks_hits_misses_and_evictions() {
        let p = pool(2);
        let mut pids = Vec::new();
        for _ in 0..4 {
            let (pid, _g) = p.new_page(PageType::BTreeLeaf).unwrap();
            pids.push(pid);
        }
        p.flush_all().unwrap();
        // pids[3] is resident (hit); pids[0] was evicted (miss + disk read).
        drop(p.fetch(pids[3]).unwrap());
        drop(p.fetch(pids[0]).unwrap());
        let s = p.obs_snapshot();
        assert_eq!(s.counter_value("pool.hits"), Some(1));
        assert_eq!(s.counter_value("pool.misses"), Some(1));
        let scans = s.hist_value("pool.evict_scan").unwrap();
        assert!(scans.count() >= 4, "every victim search recorded");
        let writes = s.hist_value("pool.write_us").unwrap();
        assert!(writes.count() >= 4, "evictions + flush_all recorded writes");
        s.validate().unwrap();
    }

    #[test]
    fn sub_pools_scale_with_capacity_and_preserve_contents() {
        // Small pools keep the single-CLOCK layout; big ones split.
        assert_eq!(pool(8).sub_pool_count(), 1);
        assert_eq!(pool(63).sub_pool_count(), 1);
        assert_eq!(pool(128).sub_pool_count(), 2);
        assert_eq!(pool(4096).sub_pool_count(), 8);

        // A 130-frame pool (2 sub-pools, uneven split 65/65) round-trips
        // pages routed to both sub-pools, reports dirty pages across both,
        // and survives a full-steal crash.
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&disk) as Arc<dyn DiskManager>, 130);
        assert_eq!(p.sub_pool_count(), 2);
        let mut pids = Vec::new();
        for i in 0..40u8 {
            let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
            {
                let mut g = page.write();
                g.payload_mut()[0] = i;
                g.set_lsn(Lsn(i as u64 + 1));
            }
            pids.push(pid);
        }
        assert_eq!(p.dirty_pages().len(), 40, "dirty across both sub-pools");
        let mut rng = Rng::new(7);
        p.simulate_crash(1.0, &mut rng).unwrap();
        for (i, pid) in pids.iter().enumerate() {
            let page = p.fetch(*pid).unwrap();
            assert_eq!(page.read().payload()[0], i as u8);
        }
    }

    #[test]
    fn concurrent_fetch_stress() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk as Arc<dyn DiskManager>, 8);
        let mut pids = Vec::new();
        for i in 0..32u8 {
            let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
            page.write().payload_mut()[0] = i;
            pids.push(pid);
        }
        p.flush_all().unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                let pids = pids.clone();
                std::thread::spawn(move || {
                    let mut rng = Rng::new(t as u64);
                    for _ in 0..500 {
                        let i = rng.below(pids.len() as u64) as usize;
                        let page = p.fetch(pids[i]).unwrap();
                        assert_eq!(page.read().payload()[0], i as u8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
