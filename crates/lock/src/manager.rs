//! The lock manager: sharded lock table, FIFO-fair wait queues with
//! conversion priority, waits-for deadlock detection, and statistics.
//!
//! Deadlock policy: detection happens at block time. If enqueueing this
//! request closes a cycle in the waits-for graph, the *requester* aborts
//! with [`txview_common::Error::DeadlockVictim`] (immediate
//! detection, "requester dies"). The E2 experiment counts these.
//!
//! Lock ordering inside the manager: shard mutex → waits-for mutex →
//! registry mutex. Wait cells are only touched outside or after those.

use crate::hook::{SchedEvent, SchedHook};
use crate::mode::LockMode;
use crate::name::LockName;
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::obs::{Histogram, ObsClock, Snapshot};
use txview_common::{Error, Result, TxnId};

const SHARDS: usize = 64;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum WaitState {
    Waiting,
    Granted,
}

struct WaitCell {
    state: Mutex<WaitState>,
    cv: Condvar,
}

struct Waiter {
    txn: TxnId,
    target: LockMode,
    converting: bool,
    cell: Arc<WaitCell>,
}

#[derive(Default)]
struct LockHead {
    holders: Vec<(TxnId, LockMode)>,
    queue: Vec<Waiter>,
}

#[derive(Default)]
struct Shard {
    table: HashMap<LockName, LockHead>,
}

/// Counters exposed to the experiment harness.
#[derive(Default)]
pub struct LockStats {
    /// Granted requests (including instant grants and conversions).
    pub acquired: AtomicU64,
    /// Requests that had to block.
    pub waited: AtomicU64,
    /// Requests aborted as deadlock victims.
    pub deadlocks: AtomicU64,
    /// Requests aborted by timeout.
    pub timeouts: AtomicU64,
    /// Grants of mode E (escrow) — the paper's fast path.
    pub escrow_grants: AtomicU64,
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

/// A point-in-time copy of [`LockStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStatsSnapshot {
    /// Granted requests.
    pub acquired: u64,
    /// Requests that blocked before being granted.
    pub waited: u64,
    /// Deadlock victims.
    pub deadlocks: u64,
    /// Timeouts.
    pub timeouts: u64,
    /// Escrow grants.
    pub escrow_grants: u64,
}

/// The lock manager. Shareable via `Arc`.
pub struct LockManager {
    shards: Box<[Mutex<Shard>]>,
    /// txn → names it holds (with grant time), in acquisition order (for
    /// release_all). A `Vec` rather than a set so release order — and
    /// therefore queue pumping and grant order — is deterministic under
    /// the interleaving explorer's replay.
    registry: Mutex<HashMap<TxnId, Vec<(LockName, u64)>>>,
    /// txn → txns it currently waits for.
    waits: Mutex<HashMap<TxnId, HashSet<TxnId>>>,
    timeout: Duration,
    stats: LockStats,
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
        let shards = (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect::<Vec<_>>();
        LockManager {
            shards: shards.into_boxed_slice(),
            registry: Mutex::new(HashMap::new()),
            waits: Mutex::new(HashMap::new()),
            timeout,
            stats: LockStats::default(),
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

    fn shard_for(&self, name: &LockName) -> &Mutex<Shard> {
        let mut h = DefaultHasher::new();
        name.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            acquired: self.stats.acquired.load(Ordering::Relaxed),
            waited: self.stats.waited.load(Ordering::Relaxed),
            deadlocks: self.stats.deadlocks.load(Ordering::Relaxed),
            timeouts: self.stats.timeouts.load(Ordering::Relaxed),
            escrow_grants: self.stats.escrow_grants.load(Ordering::Relaxed),
        }
    }

    /// The mode `txn` currently holds on `name`, if any.
    pub fn held_mode(&self, txn: TxnId, name: &LockName) -> Option<LockMode> {
        let shard = self.shard_for(name).lock();
        shard
            .table
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
        /// What the shard-locked section decided; hook calls happen after.
        enum Outcome {
            Granted { target: LockMode, converting: bool },
            Victim,
            Wait { target: LockMode, converting: bool, cell: Arc<WaitCell> },
        }
        let outcome = {
            let mut shard = self.shard_for(&name).lock();
            let head = shard.table.entry(name.clone()).or_default();
            let held = head.holders.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m);
            let covered = held.is_some_and(|h| h.covers(mode));
            let target = held.map_or(mode, |h| h.sup(mode));
            let converting = held.is_some() && !covered;
            if covered {
                Outcome::Granted { target, converting: false }
            } else if Self::grantable(head, txn, target, converting, usize::MAX) {
                Self::set_holder(head, txn, target);
                self.note_grant(txn, &name, target);
                Outcome::Granted { target, converting }
            } else {
                // Must wait. Enqueue (conversions jump the queue).
                self.stats.waited.fetch_add(1, Ordering::Relaxed);
                match target {
                    LockMode::E => self.obs.queue_depth_e.record(head.queue.len() as u64),
                    LockMode::X => self.obs.queue_depth_x.record(head.queue.len() as u64),
                    _ => {}
                }
                let cell =
                    Arc::new(WaitCell { state: Mutex::new(WaitState::Waiting), cv: Condvar::new() });
                let waiter = Waiter { txn, target, converting, cell: Arc::clone(&cell) };
                if converting {
                    head.queue.insert(0, waiter);
                } else {
                    head.queue.push(waiter);
                }
                // Build waits-for edges and check for a cycle.
                let blockers = Self::blockers_of(head, txn, target, converting);
                let mut waits = self.waits.lock();
                waits.insert(txn, blockers);
                if Self::has_cycle(&waits, txn) {
                    waits.remove(&txn);
                    drop(waits);
                    head.queue.retain(|w| w.txn != txn);
                    self.stats.deadlocks.fetch_add(1, Ordering::Relaxed);
                    Outcome::Victim
                } else {
                    Outcome::Wait { target, converting, cell }
                }
            }
        };

        let (target, converting, cell) = match outcome {
            Outcome::Granted { target, converting } => {
                if let Some(h) = &hook {
                    h.observe(
                        txn,
                        &SchedEvent::LockGranted { name: name.clone(), mode: target, converting },
                    );
                }
                return Ok(());
            }
            Outcome::Victim => {
                if let Some(h) = &hook {
                    h.observe(txn, &SchedEvent::DeadlockVictim { name: name.clone() });
                }
                return Err(Error::DeadlockVictim { txn });
            }
            Outcome::Wait { target, converting, cell } => (target, converting, cell),
        };

        // Block outside the shard lock. The hook releases this worker's
        // scheduling turn *before* the condvar wait (no lost wakeup: a
        // grant flips the cell state under its mutex first).
        if let Some(h) = &hook {
            h.on_block(txn, &SchedEvent::LockBlocked { name: name.clone(), mode: target, converting });
        }
        let wait_t0 = self.obs.clock.now();
        let deadline = std::time::Instant::now() + self.timeout;
        let mut state = cell.state.lock();
        while *state == WaitState::Waiting {
            if cell.cv.wait_until(&mut state, deadline).timed_out() {
                break;
            }
        }
        let finished = *state == WaitState::Granted;
        drop(state);
        self.obs
            .wait_hist(target)
            .record(self.obs.clock.now().saturating_sub(wait_t0));
        // Re-acquire a scheduling turn before touching shared state again.
        if let Some(h) = &hook {
            h.on_resume(txn);
        }
        if finished {
            self.waits.lock().remove(&txn);
            // Grant bookkeeping (and the grant event) was done by the releaser.
            return Ok(());
        }
        // Timeout: remove ourselves, unless a grant raced in.
        {
            let mut shard = self.shard_for(&name).lock();
            let state_now = *cell.state.lock();
            if state_now == WaitState::Granted {
                self.waits.lock().remove(&txn);
                return Ok(());
            }
            if let Some(head) = shard.table.get_mut(&name) {
                head.queue.retain(|w| w.txn != txn);
            }
            self.waits.lock().remove(&txn);
        }
        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
        if let Some(h) = &hook {
            h.observe(txn, &SchedEvent::LockTimeout { name: name.clone() });
        }
        Err(Error::LockTimeout { txn, what: name.to_string() })
    }

    /// Non-blocking acquire: grant `mode` if possible right now, otherwise
    /// return `Ok(false)` without queueing. Used by ghost cleanup, which
    /// must never wait on user transactions.
    pub fn try_acquire(&self, txn: TxnId, name: LockName, mode: LockMode) -> Result<bool> {
        let mut shard = self.shard_for(&name).lock();
        let head = shard.table.entry(name.clone()).or_default();
        let held = head.holders.iter().find(|(t, _)| *t == txn).map(|&(_, m)| m);
        if let Some(h) = held {
            if h.covers(mode) {
                return Ok(true);
            }
        }
        let target = held.map_or(mode, |h| h.sup(mode));
        let converting = held.is_some();
        if Self::grantable(head, txn, target, converting, usize::MAX) {
            Self::set_holder(head, txn, target);
            self.note_grant(txn, &name, target);
            return Ok(true);
        }
        if head.holders.is_empty() && head.queue.is_empty() {
            shard.table.remove(&name);
        }
        Ok(false)
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

    fn set_holder(head: &mut LockHead, txn: TxnId, target: LockMode) {
        if let Some(entry) = head.holders.iter_mut().find(|(t, _)| *t == txn) {
            entry.1 = target;
        } else {
            head.holders.push((txn, target));
        }
    }

    fn note_grant(&self, txn: TxnId, name: &LockName, target: LockMode) {
        self.stats.acquired.fetch_add(1, Ordering::Relaxed);
        if target == LockMode::E {
            self.stats.escrow_grants.fetch_add(1, Ordering::Relaxed);
        }
        // Read the clock before taking the registry mutex: this runs on
        // every grant, and the vDSO call would otherwise stretch the
        // global critical section.
        let granted_at = self.obs.clock.now();
        let mut reg = self.registry.lock();
        let names = reg.entry(txn).or_default();
        if !names.iter().any(|(n, _)| n == name) {
            names.push((name.clone(), granted_at));
        }
    }

    /// Grant queued requests that have become compatible; refresh the
    /// waits-for edges of those still blocked. Call with the shard locked.
    fn pump_queue(&self, name: &LockName, head: &mut LockHead) {
        let mut i = 0;
        while i < head.queue.len() {
            let w = &head.queue[i];
            if Self::grantable(head, w.txn, w.target, w.converting, i) {
                let w = head.queue.remove(i);
                Self::set_holder(head, w.txn, w.target);
                self.note_grant(w.txn, name, w.target);
                self.waits.lock().remove(&w.txn);
                if let Some(h) = self.hook() {
                    h.on_grant(
                        w.txn,
                        &SchedEvent::LockGranted {
                            name: name.clone(),
                            mode: w.target,
                            converting: w.converting,
                        },
                    );
                }
                let mut st = w.cell.state.lock();
                *st = WaitState::Granted;
                w.cell.cv.notify_all();
            } else {
                i += 1;
            }
        }
        // Refresh blocker sets of remaining waiters.
        let mut waits = self.waits.lock();
        for (i, w) in head.queue.iter().enumerate() {
            let mut blockers: HashSet<TxnId> = head
                .holders
                .iter()
                .filter(|(t, m)| *t != w.txn && !m.compatible(w.target))
                .map(|(t, _)| *t)
                .collect();
            if !w.converting {
                for earlier in head.queue.iter().take(i) {
                    if !earlier.target.compatible(w.target) {
                        blockers.insert(earlier.txn);
                    }
                }
            }
            waits.insert(w.txn, blockers);
        }
    }

    /// Release one lock held by `txn`.
    pub fn release(&self, txn: TxnId, name: &LockName) {
        if let Some(h) = self.hook() {
            h.observe(txn, &SchedEvent::LockReleased { name: name.clone() });
        }
        let mut shard = self.shard_for(name).lock();
        if let Some(head) = shard.table.get_mut(name) {
            head.holders.retain(|(t, _)| *t != txn);
            self.pump_queue(name, head);
            if head.holders.is_empty() && head.queue.is_empty() {
                shard.table.remove(name);
            }
        }
        let now = self.obs.clock.now();
        let mut released_at = None;
        if let Some(names) = self.registry.lock().get_mut(&txn) {
            names.retain(|(n, granted_at)| {
                if n == name {
                    released_at = Some(*granted_at);
                    false
                } else {
                    true
                }
            });
        }
        // Record outside the registry mutex.
        if let Some(granted_at) = released_at {
            self.obs.hold_us.record(now.saturating_sub(granted_at));
        }
    }

    /// Release everything `txn` holds (commit / final rollback), in
    /// acquisition order — deterministic, so queue pumping and grant order
    /// replay identically under the interleaving explorer.
    pub fn release_all(&self, txn: TxnId) {
        let hook = self.hook();
        let names = self.registry.lock().remove(&txn).unwrap_or_default();
        let now = self.obs.clock.now();
        for (name, granted_at) in names {
            self.obs.hold_us.record(now.saturating_sub(granted_at));
            if let Some(h) = &hook {
                h.observe(txn, &SchedEvent::LockReleased { name: name.clone() });
            }
            let mut shard = self.shard_for(&name).lock();
            if let Some(head) = shard.table.get_mut(&name) {
                head.holders.retain(|(t, _)| *t != txn);
                self.pump_queue(&name, head);
                if head.holders.is_empty() && head.queue.is_empty() {
                    shard.table.remove(&name);
                }
            }
        }
        self.waits.lock().remove(&txn);
    }

    /// Discard every lock and wait-queue entry. Locks are volatile state:
    /// a (simulated) crash erases them; recovery runs lock-free and new
    /// transactions start clean. Callers must have quiesced all workers.
    pub fn reset(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.lock();
            // Wake any stragglers so they error out instead of hanging.
            for head in shard.table.values_mut() {
                for w in head.queue.drain(..) {
                    let mut st = w.cell.state.lock();
                    *st = WaitState::Granted;
                    w.cell.cv.notify_all();
                }
            }
            shard.table.clear();
        }
        self.registry.lock().clear();
        self.waits.lock().clear();
    }

    /// Number of locks `txn` currently holds (diagnostics).
    pub fn held_count(&self, txn: TxnId) -> usize {
        self.registry.lock().get(&txn).map_or(0, |s| s.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use txview_common::IndexId;

    fn key(n: u8) -> LockName {
        LockName::key(IndexId(1), vec![n])
    }

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(Duration::from_millis(500)))
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
        // Poll until `n` requests have queued (a request counts as waited
        // the moment it is enqueued, before it parks).
        let queued = |m: &LockManager, n: u64| {
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while m.stats().waited < n {
                assert!(std::time::Instant::now() < deadline, "request {n} never queued");
                std::thread::yield_now();
            }
        };
        let m = mgr();
        m.acquire(TxnId(1), key(1), LockMode::S).unwrap();
        // Txn 2 queues for X.
        let m2 = Arc::clone(&m);
        let h2 = std::thread::spawn(move || m2.acquire(TxnId(2), key(1), LockMode::X));
        queued(&m, 1);
        // Txn 3 requests S: compatible with the holder but must NOT
        // overtake the queued X.
        let m3 = Arc::clone(&m);
        let h3 = std::thread::spawn(move || m3.acquire(TxnId(3), key(1), LockMode::S));
        queued(&m, 2);
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
