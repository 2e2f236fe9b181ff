//! The lock manager: one lock table under one mutex, FIFO-fair wait
//! queues with conversion priority, waits-for deadlock detection, and
//! statistics.
//!
//! Deadlock policy: detection happens at block time. If enqueueing this
//! request closes a cycle in the waits-for graph, the *requester* aborts
//! with [`txview_common::Error::DeadlockVictim`] (immediate
//! detection, "requester dies"). The E2 experiment counts these.
//!
//! Waiting: a blocked request parks on its own condvar against the table
//! mutex. Grants happen under that mutex and take the waiter out of its
//! queue, so a waiter that wakes to find itself dequeued was granted. One
//! still queued at its deadline leaves the queue and pumps it, so the
//! waiters it held back are granted rather than stranded behind it.

use crate::hook::{SchedEvent, SchedHook};
use crate::mode::LockMode;
use crate::name::LockName;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_common::obs::{Histogram, ObsClock, Snapshot};
use txview_common::{Error, Result, TxnId};

struct Waiter {
    txn: TxnId,
    target: LockMode,
    converting: bool,
    /// Notified, under the table mutex, when the waiter leaves the queue.
    cv: Arc<Condvar>,
}

#[derive(Default)]
struct LockHead {
    holders: Vec<(TxnId, LockMode)>,
    queue: Vec<Waiter>,
}

type Held = HashMap<TxnId, Vec<(LockName, u64)>>;

/// All lock state, under the manager's one mutex.
#[derive(Default)]
struct Table {
    heads: HashMap<LockName, LockHead>,
    /// txn → names it holds (with grant time), in acquisition order (for
    /// release_all). A `Vec` rather than a set so release order — and
    /// therefore queue pumping and grant order — is deterministic under
    /// the interleaving explorer's replay.
    held: Held,
    /// txn → txns it currently waits for.
    waits: HashMap<TxnId, HashSet<TxnId>>,
    stats: LockStatsSnapshot,
}

/// Latency/depth instrumentation of the lock protocol (the contention
/// picture behind the E1/E2 throughput numbers): per-mode wait latency,
/// hold time from grant to release, and queue depth observed at enqueue.
/// All recording is relaxed-atomic; the wait histograms are touched only
/// on the slow (blocking) path.
#[derive(Default)]
pub struct LockObs {
    /// Shared observability clock (switchable to deterministic ticks).
    pub clock: ObsClock,
    /// Wait latency of blocked E (escrow) requests.
    pub wait_e_us: Histogram,
    /// Wait latency of blocked X requests.
    pub wait_x_us: Histogram,
    /// Wait latency of blocked requests in any other mode (S, intents).
    pub wait_other_us: Histogram,
    /// Grant-to-release hold time, all modes.
    pub hold_us: Histogram,
    /// Queue depth seen by an E request at enqueue time.
    pub queue_depth_e: Histogram,
    /// Queue depth seen by an X request at enqueue time.
    pub queue_depth_x: Histogram,
}

impl LockObs {
    fn wait_hist(&self, mode: LockMode) -> &Histogram {
        match mode {
            LockMode::E => &self.wait_e_us,
            LockMode::X => &self.wait_x_us,
            _ => &self.wait_other_us,
        }
    }
}

/// The lock counters, as kept in the table and copied out by
/// [`LockManager::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Granted requests (including instant grants and conversions).
    pub acquired: u64,
    /// Requests that blocked before being granted.
    pub waited: u64,
    /// Deadlock victims.
    pub deadlocks: u64,
    /// Timeouts.
    pub timeouts: u64,
    /// Grants of mode E (escrow) — the paper's fast path.
    pub escrow_grants: u64,
}

/// The lock manager. Shareable via `Arc`.
pub struct LockManager {
    table: Mutex<Table>,
    timeout: Duration,
    obs: LockObs,
    /// Scheduler hook for the interleaving explorer; `None` in production.
    hook: RwLock<Option<Arc<dyn SchedHook>>>,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(10))
    }
}

impl LockManager {
    /// Create a manager with the given lock-wait timeout.
    pub fn new(timeout: Duration) -> LockManager {
        LockManager {
            table: Mutex::new(Table::default()),
            timeout,
            obs: LockObs::default(),
            hook: RwLock::new(None),
        }
    }

    /// Latency/depth instrumentation (histograms are live; snapshot them).
    pub fn obs(&self) -> &LockObs {
        &self.obs
    }

    /// Named metrics snapshot of this layer (`lock.*`).
    pub fn obs_snapshot(&self) -> Snapshot {
        let s = self.stats();
        let mut out = Snapshot::default();
        out.counter("lock.acquired", s.acquired)
            .counter("lock.waited", s.waited)
            .counter("lock.deadlock_victims", s.deadlocks)
            .counter("lock.timeouts", s.timeouts)
            .counter("lock.escrow_grants", s.escrow_grants)
            .hist("lock.wait_us.e", self.obs.wait_e_us.snapshot())
            .hist("lock.wait_us.x", self.obs.wait_x_us.snapshot())
            .hist("lock.wait_us.other", self.obs.wait_other_us.snapshot())
            .hist("lock.hold_us", self.obs.hold_us.snapshot())
            .hist("lock.queue_depth.e", self.obs.queue_depth_e.snapshot())
            .hist("lock.queue_depth.x", self.obs.queue_depth_x.snapshot());
        out.sort();
        out
    }

    /// Install (or clear) the scheduler hook. Test-only seam: the
    /// interleaving explorer installs its virtual scheduler here; the
    /// transaction manager and engine reach it through [`LockManager::hook`].
    pub fn set_hook(&self, hook: Option<Arc<dyn SchedHook>>) {
        *self.hook.write() = hook;
    }

    /// The currently installed scheduler hook, if any.
    pub fn hook(&self) -> Option<Arc<dyn SchedHook>> {
        self.hook.read().clone()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LockStatsSnapshot {
        self.table.lock().stats
    }

    /// The mode `txn` currently holds on `name`, if any.
    pub fn held_mode(&self, txn: TxnId, name: &LockName) -> Option<LockMode> {
        let t = self.table.lock();
        t.heads
            .get(name)
            .and_then(|h| h.holders.iter().find(|(t, _)| *t == txn).map(|(_, m)| *m))
    }

    /// Acquire `mode` on `name` for `txn`, blocking if necessary.
    ///
    /// Re-requests are absorbed (covered by the held mode) or treated as
    /// conversions (held ∨ requested), which take priority over the queue.
    pub fn acquire(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<()> {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.yield_point(txn, &SchedEvent::LockRequest { name: name.clone(), mode });
        }
        let now = self.obs.clock.now();
        let mut t = self.table.lock();
        let (target, converting, granted) = Self::request(&mut t, txn, &name, mode, now);
        if granted {
            drop(t);
            if let Some(h) = &hook {
                h.observe(txn, &SchedEvent::LockGranted { name: name.clone(), mode: target, converting });
            }
            return Ok(());
        }
        // Must wait. Enqueue (conversions jump the queue), then build the
        // waits-for edges and check for a cycle.
        let Table { heads, waits, stats, .. } = &mut *t;
        let head = heads.get_mut(&name).expect("a blocked request has a head");
        stats.waited += 1;
        match target {
            LockMode::E => self.obs.queue_depth_e.record(head.queue.len() as u64),
            LockMode::X => self.obs.queue_depth_x.record(head.queue.len() as u64),
            _ => {}
        }
        let cv = Arc::new(Condvar::new());
        let waiter = Waiter { txn, target, converting, cv: Arc::clone(&cv) };
        if converting {
            head.queue.insert(0, waiter);
        } else {
            head.queue.push(waiter);
        }
        waits.insert(txn, Self::blockers_of(head, txn, target, converting));
        if Self::has_cycle(waits, txn) {
            waits.remove(&txn);
            head.queue.retain(|w| w.txn != txn);
            stats.deadlocks += 1;
            drop(t);
            if let Some(h) = &hook {
                h.observe(txn, &SchedEvent::DeadlockVictim { name: name.clone() });
            }
            return Err(Error::DeadlockVictim { txn });
        }
        drop(t);

        // The hook releases this worker's scheduling turn without the table
        // held. A grant made before the re-lock below has already dequeued
        // the waiter, so the membership check cannot miss it.
        if let Some(h) = &hook {
            h.on_block(txn, &SchedEvent::LockBlocked { name: name.clone(), mode: target, converting });
        }
        let wait_t0 = self.obs.clock.now();
        let deadline = Instant::now() + self.timeout;
        let mut t = self.table.lock();
        let mut timed_out = false;
        let granted = loop {
            if !t.heads.get(&name).is_some_and(|h| h.queue.iter().any(|w| w.txn == txn)) {
                break true; // dequeued by a grant (or by `reset`)
            }
            if timed_out {
                break false;
            }
            timed_out = cv.wait_until(&mut t, deadline).timed_out();
        };
        if !granted {
            // Leave the queue, and let the waiters this request held back in.
            self.leave(&mut t, &name, hook.as_deref(), |head| head.queue.retain(|w| w.txn != txn));
            t.waits.remove(&txn);
            t.stats.timeouts += 1;
        }
        drop(t);
        self.obs
            .wait_hist(target)
            .record(self.obs.clock.now().saturating_sub(wait_t0));
        // Re-acquire a scheduling turn before touching shared state again.
        if let Some(h) = &hook {
            h.on_resume(txn);
        }
        if granted {
            // Grant bookkeeping (and the grant event) was done by the releaser.
            return Ok(());
        }
        if let Some(h) = &hook {
            h.observe(txn, &SchedEvent::LockTimeout { name: name.clone() });
        }
        Err(Error::LockTimeout { txn, what: name.to_string() })
    }

    /// Non-blocking acquire: grant `mode` if possible right now, otherwise
    /// return `Ok(false)` without queueing. Used by ghost cleanup, which
    /// must never wait on user transactions.
    pub fn try_acquire(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<bool> {
        let now = self.obs.clock.now();
        let (_, _, granted) = Self::request(&mut self.table.lock(), txn, &name, mode, now);
        Ok(granted)
    }

    /// The grant prologue of `acquire` and `try_acquire`. `txn`'s request
    /// for `mode` on `name` targets held ∨ requested, and is granted at
    /// once if the held mode covers it or the head admits it. Returns
    /// `(target, converting, granted)`. A declined request leaves its head
    /// in the table (never empty: something blocks it).
    fn request(t: &mut Table, txn: TxnId, name: &LockName, mode: LockMode, now: u64) -> (LockMode, bool, bool) {
        let head = t.heads.entry(name.clone()).or_default();
        let held = head.holders.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m);
        let target = held.map_or(mode, |h| h.sup(mode));
        if held.is_some_and(|h| h.covers(mode)) {
            return (target, false, true);
        }
        let converting = held.is_some();
        if !Self::grantable(head, txn, target, converting, usize::MAX) {
            return (target, converting, false);
        }
        Self::grant(head, &mut t.held, &mut t.stats, txn, name, target, now);
        (target, converting, true)
    }

    /// True if `txn` may be granted `target` right now. `queue_limit`
    /// bounds the fairness check to waiters ahead of position `queue_limit`.
    fn grantable(head: &LockHead, txn: TxnId, target: LockMode, converting: bool, queue_limit: usize) -> bool {
        let holders_ok = head
            .holders
            .iter()
            .all(|(t, m)| *t == txn || m.compatible(target));
        if !holders_ok {
            return false;
        }
        if converting {
            return true; // conversions only wait for incompatible holders
        }
        // Fairness: don't overtake earlier waiters we conflict with.
        head.queue
            .iter()
            .take(queue_limit)
            .filter(|w| w.txn != txn)
            .all(|w| w.target.compatible(target))
    }

    fn blockers_of(head: &LockHead, txn: TxnId, target: LockMode, converting: bool) -> HashSet<TxnId> {
        let mut out: HashSet<TxnId> = head
            .holders
            .iter()
            .filter(|(t, m)| *t != txn && !m.compatible(target))
            .map(|(t, _)| *t)
            .collect();
        if !converting {
            for w in &head.queue {
                if w.txn == txn {
                    break;
                }
                if !w.target.compatible(target) {
                    out.insert(w.txn);
                }
            }
        }
        out
    }

    fn has_cycle(waits: &HashMap<TxnId, HashSet<TxnId>>, start: TxnId) -> bool {
        // DFS from start's blockers looking for a path back to start.
        let mut stack: Vec<TxnId> = waits.get(&start).map(|s| s.iter().copied().collect()).unwrap_or_default();
        let mut seen = HashSet::new();
        while let Some(t) = stack.pop() {
            if t == start {
                return true;
            }
            if !seen.insert(t) {
                continue;
            }
            if let Some(next) = waits.get(&t) {
                stack.extend(next.iter().copied());
            }
        }
        false
    }

    /// Make `txn` a holder of `target` on `head` and book the grant.
    fn grant(
        head: &mut LockHead,
        held: &mut Held,
        stats: &mut LockStatsSnapshot,
        txn: TxnId,
        name: &LockName,
        target: LockMode,
        now: u64,
    ) {
        if let Some(entry) = head.holders.iter_mut().find(|(t, _)| *t == txn) {
            entry.1 = target;
        } else {
            head.holders.push((txn, target));
        }
        stats.acquired += 1;
        if target == LockMode::E {
            stats.escrow_grants += 1;
        }
        let names = held.entry(txn).or_default();
        if !names.iter().any(|(n, _)| n == name) {
            names.push((name.clone(), now));
        }
    }

    /// `out` takes one transaction out of `name`'s head: as a holder
    /// (release) or as a waiter (timeout). Then the queue is pumped: the
    /// waiters that have become compatible are granted in queue order and
    /// woken, and the waits-for edges of those still blocked are refreshed.
    /// An empty head is dropped.
    fn leave(&self, t: &mut Table, name: &LockName, hook: Option<&dyn SchedHook>, out: impl FnOnce(&mut LockHead)) {
        let Table { heads, held, waits, stats } = t;
        let Some(head) = heads.get_mut(name) else { return };
        out(head);
        let mut i = 0;
        while i < head.queue.len() {
            let w = &head.queue[i];
            if !Self::grantable(head, w.txn, w.target, w.converting, i) {
                i += 1;
                continue;
            }
            let w = head.queue.remove(i);
            Self::grant(head, held, stats, w.txn, name, w.target, self.obs.clock.now());
            waits.remove(&w.txn);
            if let Some(h) = hook {
                h.on_grant(
                    w.txn,
                    &SchedEvent::LockGranted { name: name.clone(), mode: w.target, converting: w.converting },
                );
            }
            w.cv.notify_one();
        }
        for w in &head.queue {
            waits.insert(w.txn, Self::blockers_of(head, w.txn, w.target, w.converting));
        }
        if head.holders.is_empty() && head.queue.is_empty() {
            heads.remove(name);
        }
    }

    /// Release one lock held by `txn`.
    pub fn release(&self, txn: TxnId, name: &LockName) {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.observe(txn, &SchedEvent::LockReleased { name: name.clone() });
        }
        let now = self.obs.clock.now();
        let mut t = self.table.lock();
        self.leave(&mut t, name, hook.as_deref(), |head| head.holders.retain(|&(holder, _)| holder != txn));
        let names = t.held.get_mut(&txn);
        let granted_at = names.and_then(|names| {
            let i = names.iter().position(|(n, _)| n == name)?;
            Some(names.remove(i).1)
        });
        drop(t);
        if let Some(granted_at) = granted_at {
            self.obs.hold_us.record(now.saturating_sub(granted_at));
        }
    }

    /// Release everything `txn` holds (commit / final rollback), in
    /// acquisition order — deterministic, so queue pumping and grant order
    /// replay identically under the interleaving explorer.
    pub fn release_all(&self, txn: TxnId) {
        let hook = self.hook();
        let now = self.obs.clock.now();
        let mut t = self.table.lock();
        for (name, granted_at) in t.held.remove(&txn).unwrap_or_default() {
            self.obs.hold_us.record(now.saturating_sub(granted_at));
            if let Some(h) = &hook {
                h.observe(txn, &SchedEvent::LockReleased { name: name.clone() });
            }
            self.leave(&mut t, &name, hook.as_deref(), |head| head.holders.retain(|&(holder, _)| holder != txn));
        }
        t.waits.remove(&txn);
    }

    /// Discard every lock and wait-queue entry. Locks are volatile state:
    /// a (simulated) crash erases them; recovery runs lock-free and new
    /// transactions start clean. Callers must have quiesced all workers.
    pub fn reset(&self) {
        let mut t = self.table.lock();
        // Wake any stragglers: dequeued, they return as granted.
        for w in t.heads.values().flat_map(|h| &h.queue) {
            w.cv.notify_one();
        }
        t.heads.clear();
        t.held.clear();
        t.waits.clear();
    }

    /// Number of locks `txn` currently holds (diagnostics).
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.table.lock().held.get(&txn).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use txview_common::IndexId;

    fn key(n: u8) -> LockName {
        LockName::key(IndexId(1), vec![n])
    }

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_millis(500)))
    }

    /// Poll until `n` requests have queued (a request counts as waited the
    /// moment it is enqueued, before it parks).
    fn wait_queued(m: &LockManager, n: u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while m.stats().waited < n {
            assert!(std::time::Instant::now() < deadline, "request {n} never queued");
            std::thread::yield_now();
        }
    }

    #[test]
    fn instant_grant_and_reentrant_absorb() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::S).unwrap();
        m.acquire(TxnId(1), key(1), LockMode::S).unwrap();
        assert_eq!(m.held_mode(TxnId(1), &key(1)), Some(LockMode::S));
        assert_eq!(m.stats().acquired, 1, "second request absorbed");
    }

    #[test]
    fn escrow_holders_coexist_on_same_key() {
        let m = mgr();
        for t in 1..=8 {
            m.acquire(TxnId(t), key(7), LockMode::E).unwrap();
        }
        assert_eq!(m.stats().escrow_grants, 8);
        assert_eq!(m.stats().waited, 0);
    }

    #[test]
    fn x_blocks_until_release() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::X));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(m.held_mode(TxnId(2), &key(1)), None);
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.held_mode(TxnId(2), &key(1)), Some(LockMode::X));
    }

    #[test]
    fn reader_blocks_escrow_writer_and_vice_versa() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::E).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::S));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(m.held_mode(TxnId(2), &key(1)), None, "S must wait for E");
        m.release_all(TxnId(1));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn conversion_e_to_x_waits_for_other_escrow_holders() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::E).unwrap();
        m.acquire(TxnId(2), key(1), LockMode::E).unwrap();
        let m2 = Arc::clone(&m);
        // Txn 1 wants to read its row back: E ∨ S = X conversion.
        let h = std::thread::spawn(move || m2.acquire(TxnId(1), key(1), LockMode::S));
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(m.held_mode(TxnId(1), &key(1)), Some(LockMode::E), "still E while waiting");
        m.release_all(TxnId(2));
        h.join().unwrap().unwrap();
        assert_eq!(m.held_mode(TxnId(1), &key(1)), Some(LockMode::X));
    }

    #[test]
    fn deadlock_detected_requester_dies() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        m.acquire(TxnId(2), key(2), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(TxnId(1), key(2), LockMode::X));
        std::thread::sleep(Duration::from_millis(100));
        // Txn 2 now closes the cycle and must die immediately.
        let err = m.acquire(TxnId(2), key(1), LockMode::X).unwrap_err();
        assert!(matches!(err, Error::DeadlockVictim { txn: TxnId(2) }));
        assert_eq!(m.stats().deadlocks, 1);
        // Unblock txn 1 by releasing txn 2's locks (as its rollback would).
        m.release_all(TxnId(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn conversion_deadlock_between_two_escrow_holders() {
        // Both hold E on the same key; both try to convert to X.
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::E).unwrap();
        m.acquire(TxnId(2), key(1), LockMode::E).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(TxnId(1), key(1), LockMode::X));
        std::thread::sleep(Duration::from_millis(100));
        let err = m.acquire(TxnId(2), key(1), LockMode::X).unwrap_err();
        assert!(matches!(err, Error::DeadlockVictim { .. }));
        m.release_all(TxnId(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn timeout_fires_without_deadlock() {
        let m = Arc::new(LockManager::new(Duration::from_millis(100)));
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        let err = m.acquire(TxnId(2), key(1), LockMode::S).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
        assert_eq!(m.stats().timeouts, 1);
        // Txn 2 left no residue.
        m.release_all(TxnId(1));
        m.acquire(TxnId(3), key(1), LockMode::X).unwrap();
    }

    #[test]
    fn fifo_fairness_no_starvation_overtake() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::S).unwrap();
        // Txn 2 queues for X.
        let m2 = Arc::clone(&m);
        let h2 = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::X));
        wait_queued(&m, 1);
        // Txn 3 requests S: compatible with the holder but must NOT
        // overtake the queued X.
        let m3 = Arc::clone(&m);
        let h3 = std::thread::spawn(move || m3.acquire(TxnId(3), key(1), LockMode::S));
        wait_queued(&m, 2);
        assert_eq!(m.held_mode(TxnId(3), &key(1)), None, "S must queue behind X");
        m.release_all(TxnId(1));
        h2.join().unwrap().unwrap();
        m.release_all(TxnId(2));
        h3.join().unwrap().unwrap();
    }

    #[test]
    fn release_all_wakes_multiple_escrow_waiters_together() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        let handles: Vec<_> = (2..=5)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || m.acquire(TxnId(t), key(1), LockMode::E))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        m.release_all(TxnId(1));
        for h in handles {
            h.join().unwrap().unwrap();
        }
        // All four escrow holders granted simultaneously.
        for t in 2..=5 {
            assert_eq!(m.held_mode(TxnId(t), &key(1)), Some(LockMode::E));
        }
    }

    #[test]
    fn gap_and_key_locks_are_independent_resources() {
        let m = mgr();
        m.acquire(TxnId(1), LockName::key(IndexId(1), vec![5]), LockMode::X).unwrap();
        // Gap before key 5 is a different resource: no blocking.
        m.acquire(TxnId(2), LockName::gap(IndexId(1), vec![5]), LockMode::X).unwrap();
        assert_eq!(m.stats().waited, 0);
    }

    #[test]
    fn try_acquire_grants_or_declines_without_queueing() {
        let m = mgr();
        assert!(m.try_acquire(TxnId(1), key(1), LockMode::E).unwrap());
        // Compatible: granted.
        assert!(m.try_acquire(TxnId(2), key(1), LockMode::E).unwrap());
        // Incompatible: declined instantly, nothing queued.
        assert!(!m.try_acquire(TxnId(3), key(1), LockMode::X).unwrap());
        assert_eq!(m.held_mode(TxnId(3), &key(1)), None);
        m.release_all(TxnId(1));
        m.release_all(TxnId(2));
        // Now it succeeds.
        assert!(m.try_acquire(TxnId(3), key(1), LockMode::X).unwrap());
        // Covered re-request is a cheap true.
        assert!(m.try_acquire(TxnId(3), key(1), LockMode::S).unwrap());
    }

    #[test]
    fn reset_clears_holders_and_wakes_waiters() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::X));
        std::thread::sleep(Duration::from_millis(50));
        m.reset();
        // The waiter is woken (granted-by-reset is fine for crash paths).
        h.join().unwrap().unwrap();
        // All state is gone: a fresh txn acquires instantly.
        m.acquire(TxnId(9), key(1), LockMode::X).unwrap();
        assert_eq!(m.held_count(TxnId(1)), 0);
    }

    #[test]
    fn timed_out_waiter_unblocks_the_compatible_waiter_behind_it() {
        let m = Arc::new(LockManager::new(Duration::from_millis(300)));
        m.acquire(TxnId(1), key(1), LockMode::S).unwrap();
        // Txn 2 queues for X; txn 3 queues for S behind it, compatible with
        // the only holder but held back by the queued X.
        let m2 = Arc::clone(&m);
        let h2 = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::X));
        wait_queued(&m, 1);
        // Enqueue txn 3 well after txn 2, so txn 2's deadline comes first.
        std::thread::sleep(Duration::from_millis(100));
        let m3 = Arc::clone(&m);
        let h3 = std::thread::spawn(move || m3.acquire(TxnId(3), key(1), LockMode::S));
        wait_queued(&m, 2);
        assert!(matches!(h2.join().unwrap(), Err(Error::LockTimeout { txn: TxnId(2), .. })));
        // Txn 2's timeout pumped the queue: txn 3 shares S with txn 1.
        h3.join().unwrap().unwrap();
        assert_eq!(m.held_mode(TxnId(3), &key(1)), Some(LockMode::S));
        assert_eq!(m.held_mode(TxnId(1), &key(1)), Some(LockMode::S));
        assert_eq!(m.stats().timeouts, 1);
    }

    #[test]
    fn release_grants_the_next_waiter_and_keeps_the_other_locks() {
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        m.acquire(TxnId(1), key(2), LockMode::S).unwrap();
        m.acquire(TxnId(1), LockName::gap(IndexId(1), vec![2]), LockMode::S).unwrap();
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::X));
        wait_queued(&m, 1);
        m.release(TxnId(1), &key(1));
        h.join().unwrap().unwrap();
        assert_eq!(m.held_mode(TxnId(2), &key(1)), Some(LockMode::X));
        assert_eq!(m.held_mode(TxnId(1), &key(1)), None);
        assert_eq!(m.held_mode(TxnId(1), &key(2)), Some(LockMode::S));
        assert_eq!(m.held_count(TxnId(1)), 2);
        // The released lock is gone from txn 1's list: release_all does not
        // release it again under txn 2.
        m.release_all(TxnId(1));
        assert_eq!(m.held_mode(TxnId(2), &key(1)), Some(LockMode::X));
    }

    #[test]
    fn timed_out_request_leaves_no_queue_entry_or_waits_for_edge() {
        let m = Arc::new(LockManager::new(Duration::from_millis(100)));
        m.acquire(TxnId(1), key(1), LockMode::X).unwrap();
        m.acquire(TxnId(2), key(2), LockMode::X).unwrap();
        let err = m.acquire(TxnId(2), key(1), LockMode::X).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { txn: TxnId(2), .. }));
        {
            let t = m.table.lock();
            assert!(t.heads[&key(1)].queue.is_empty());
            assert!(!t.waits.contains_key(&TxnId(2)));
        }
        // Txn 1 now waits for txn 2: no cycle, so it times out rather than
        // dying as a deadlock victim.
        let err = m.acquire(TxnId(1), key(2), LockMode::X).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { txn: TxnId(1), .. }));
        assert_eq!(m.stats().deadlocks, 0);
    }

    #[test]
    fn stress_many_threads_many_keys() {
        let m = Arc::new(LockManager::new(Duration::from_secs(5)));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let m = Arc::clone(&m);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let mut rng = txview_common::rng::Rng::new(t);
                    for i in 0..200 {
                        let txn = TxnId(t * 1000 + i + 1);
                        let k = key(rng.below(4) as u8);
                        let mode = if rng.chance(0.7) { LockMode::E } else { LockMode::X };
                        match m.acquire(txn, k, mode) {
                            Ok(()) => {
                                counter.fetch_add(1, Ordering::Relaxed);
                                m.release_all(txn);
                            }
                            Err(Error::DeadlockVictim { .. }) | Err(Error::LockTimeout { .. }) => {
                                m.release_all(txn);
                            }
                            Err(e) => panic!("unexpected: {e}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(counter.load(Ordering::Relaxed) > 1000, "most requests succeed");
    }
}
