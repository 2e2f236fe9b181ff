//! The cooperative virtual scheduler: N worker threads, one turn token.
//!
//! Workers run real engine code on real OS threads, but only one worker is
//! *Running* at a time. Every scheduling-relevant event (lock acquire
//! entry, commit start, rollback start, version publish — see
//! [`txview_lock::SchedHook`]) parks the worker and hands the decision to a
//! [`Chooser`]. Because the engine itself is deterministic once the
//! schedule is fixed (single runner at a time, deterministic release
//! order), the recorded decision list `(n_candidates, chosen)` fully
//! replays an execution: same choices ⇒ same interleaving ⇒ same history.
//!
//! Lock *waits* are cooperative too: [`SchedHook::on_block`] marks the
//! worker Blocked and releases its turn before the thread enters the real
//! condvar wait; the releaser's queue pump calls [`SchedHook::on_grant`]
//! (Blocked → Ready) and the woken thread re-requests a turn via
//! [`SchedHook::on_resume`] before touching shared state. A state where no
//! worker is Ready or Running while some are Blocked is a *stall* (it
//! cannot happen if deadlock detection is sound — cycles abort the
//! requester immediately) and is reported as an oracle violation; the
//! blocked workers then recover via the lock-wait timeout.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;
use txview_common::rng::Rng;
use txview_common::TxnId;
use txview_lock::{SchedEvent, SchedHook};

use super::script::Action;

/// One recorded history entry: a hook event or a script-level action.
#[derive(Clone, Debug)]
pub enum EventKind {
    /// Lock / transaction event from the hook layer.
    Hook(SchedEvent),
    /// Operation-level record from the script runner (reads with observed
    /// values, writes with their group deltas).
    Action(Action),
}

/// A history entry with its global sequence number.
#[derive(Clone, Debug)]
pub struct Event {
    /// Global order stamp (dense, starts at 0).
    pub seq: u64,
    /// Worker index that produced the event.
    pub worker: usize,
    /// Transaction the event belongs to.
    pub txn: u64,
    /// Payload.
    pub kind: EventKind,
}

/// Picks the next worker to run among the Ready candidates.
pub trait Chooser: Send {
    /// Return an index **into `candidates`** (worker indices, ascending).
    /// Out-of-range returns are clamped.
    fn choose(&mut self, step: usize, candidates: &[usize]) -> usize;
}

/// Replays a recorded choice list; beyond the list it always picks 0
/// (the lowest-index Ready worker) — the DFS explorer's canonical suffix.
pub struct ReplayChooser {
    choices: Vec<usize>,
}

impl ReplayChooser {
    /// Chooser for the given decision prefix.
    pub fn new(choices: Vec<usize>) -> ReplayChooser {
        ReplayChooser { choices }
    }
}

impl Chooser for ReplayChooser {
    fn choose(&mut self, step: usize, _candidates: &[usize]) -> usize {
        self.choices.get(step).copied().unwrap_or(0)
    }
}

/// PCT-style probabilistic scheduler (Burckhardt et al.): each worker gets
/// a random priority; the highest-priority Ready worker runs; at `changes`
/// pre-sampled decision steps the current leader's priority drops below
/// everyone else's. Covers low-probability orderings with few runs.
pub struct PctChooser {
    rng: Rng,
    prio: HashMap<usize, u64>,
    change_steps: Vec<usize>,
    demote_counter: u64,
}

impl PctChooser {
    /// Seeded chooser with `changes` priority-change points in the first
    /// `horizon` decisions.
    pub fn new(seed: u64, changes: usize, horizon: usize) -> PctChooser {
        let mut rng = Rng::new(seed);
        let mut change_steps: Vec<usize> =
            (0..changes).map(|_| rng.below(horizon.max(1) as u64) as usize).collect();
        change_steps.sort_unstable();
        change_steps.dedup();
        PctChooser { rng, prio: HashMap::new(), change_steps, demote_counter: 0 }
    }

    fn prio_of(&mut self, worker: usize) -> u64 {
        if let Some(p) = self.prio.get(&worker) {
            return *p;
        }
        // Priorities in a high band so demotions (counting down from 0
        // backwards) always rank below.
        let p = 1_000_000 + self.rng.below(1_000_000);
        self.prio.insert(worker, p);
        p
    }
}

impl Chooser for PctChooser {
    fn choose(&mut self, step: usize, candidates: &[usize]) -> usize {
        let (mut best, mut best_prio) = (0usize, 0u64);
        for (i, &w) in candidates.iter().enumerate() {
            let p = self.prio_of(w);
            if i == 0 || p > best_prio {
                best = i;
                best_prio = p;
            }
        }
        if self.change_steps.binary_search(&step).is_ok() {
            // Demote the leader below every previously assigned priority.
            self.demote_counter += 1;
            let w = candidates[best];
            let demoted = 1_000 - self.demote_counter.min(999);
            self.prio.insert(w, demoted);
            // Re-pick under the new priorities.
            let (mut b2, mut p2) = (0usize, 0u64);
            for (i, &w) in candidates.iter().enumerate() {
                let p = self.prio_of(w);
                if i == 0 || p > p2 {
                    b2 = i;
                    p2 = p;
                }
            }
            return b2;
        }
        best
    }
}

/// Round-robin rotation: after worker `w` ran, prefer the smallest Ready
/// worker index greater than `w` (wrapping). Produces the canonical
/// "everyone advances one step per round" interleaving used by the
/// youngest-victim deadlock regression.
pub struct RotationChooser {
    last: usize,
}

impl RotationChooser {
    /// Rotation starting before worker 0.
    pub fn new() -> RotationChooser {
        RotationChooser { last: usize::MAX }
    }
}

impl Default for RotationChooser {
    fn default() -> Self {
        Self::new()
    }
}

impl Chooser for RotationChooser {
    fn choose(&mut self, _step: usize, candidates: &[usize]) -> usize {
        let pick = candidates
            .iter()
            .position(|&w| self.last == usize::MAX || w > self.last)
            .unwrap_or(0);
        self.last = candidates[pick];
        pick
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    NotStarted,
    Running,
    Ready,
    Blocked,
    Finished,
}

struct Inner {
    status: Vec<Status>,
    turn: Option<usize>,
    txn_of: HashMap<u64, usize>,
    history: Vec<Event>,
    decisions: Vec<(usize, usize)>,
    chooser: Box<dyn Chooser>,
    stalled: bool,
}

/// The virtual scheduler. Implements [`SchedHook`]; install on the lock
/// manager for the duration of one episode.
pub struct VirtualScheduler {
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl VirtualScheduler {
    /// Scheduler for `n_workers` cooperating workers.
    pub fn new(n_workers: usize, chooser: Box<dyn Chooser>) -> Arc<VirtualScheduler> {
        Arc::new(VirtualScheduler {
            inner: Mutex::new(Inner {
                status: vec![Status::NotStarted; n_workers],
                turn: None,
                txn_of: HashMap::new(),
                history: Vec::new(),
                decisions: Vec::new(),
                chooser,
                stalled: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Pick the next worker if no one holds the turn. Call with the inner
    /// mutex held, after any state change.
    fn decide(&self, g: &mut Inner) {
        if g.turn.is_some() || g.status.iter().any(|s| *s == Status::NotStarted) {
            return;
        }
        let candidates: Vec<usize> = (0..g.status.len())
            .filter(|&i| g.status[i] == Status::Ready)
            .collect();
        if candidates.is_empty() {
            let running = g.status.iter().any(|s| *s == Status::Running);
            let blocked = g.status.iter().any(|s| *s == Status::Blocked);
            if !running && blocked {
                // Should be unreachable if deadlock detection is sound:
                // blocked workers wait only on Running/Ready holders.
                g.stalled = true;
            }
            self.cv.notify_all();
            return;
        }
        let step = g.decisions.len();
        let pick = g.chooser.choose(step, &candidates).min(candidates.len() - 1);
        g.decisions.push((candidates.len(), pick));
        g.turn = Some(candidates[pick]);
        self.cv.notify_all();
    }

    /// Park worker `i` until the chooser hands it the turn.
    fn park(&self, i: usize) {
        let mut g = self.inner.lock();
        if g.turn == Some(i) {
            if g.status[i] == Status::Ready {
                // A resuming worker the chooser already picked while its
                // thread was still racing from the real condvar wake
                // toward this park: take the granted turn as-is. Clearing
                // it and re-deciding here would record an extra decision
                // whose presence depends on who won that race, making the
                // schedule tree timing-dependent.
                g.status[i] = Status::Running;
                return;
            }
            g.turn = None;
        }
        g.status[i] = Status::Ready;
        self.decide(&mut g);
        while g.turn != Some(i) {
            self.cv.wait(&mut g);
        }
        g.status[i] = Status::Running;
    }

    /// First call of a worker thread: wait for the first turn.
    pub fn attach(&self, i: usize) {
        self.park(i);
    }

    /// Worker `i` is done (its thread is about to return).
    pub fn finish(&self, i: usize) {
        let mut g = self.inner.lock();
        g.status[i] = Status::Finished;
        if g.turn == Some(i) {
            g.turn = None;
        }
        self.decide(&mut g);
    }

    /// Bind a transaction id to a worker. Events of unregistered
    /// transactions (system transactions, setup) pass through unrecorded.
    pub fn register_txn(&self, i: usize, txn: TxnId) {
        self.inner.lock().txn_of.insert(txn.0, i);
    }

    /// Script-level yield for operations with no natural hook yield
    /// (snapshot reads take no locks).
    pub fn script_yield(&self, txn: TxnId) {
        let worker = self.inner.lock().txn_of.get(&txn.0).copied();
        if let Some(i) = worker {
            self.park(i);
        }
    }

    /// Record a script-level action into the history.
    pub fn record_action(&self, txn: TxnId, action: Action) {
        let mut g = self.inner.lock();
        if let Some(&i) = g.txn_of.get(&txn.0) {
            let seq = g.history.len() as u64;
            g.history.push(Event { seq, worker: i, txn: txn.0, kind: EventKind::Action(action) });
        }
    }

    fn record_hook(&self, g: &mut Inner, txn: TxnId, ev: &SchedEvent) {
        if let Some(&i) = g.txn_of.get(&txn.0) {
            let seq = g.history.len() as u64;
            g.history.push(Event { seq, worker: i, txn: txn.0, kind: EventKind::Hook(ev.clone()) });
        }
    }

    /// Drain the episode's results: (decisions, history, stalled).
    pub fn results(&self) -> (Vec<(usize, usize)>, Vec<Event>, bool) {
        let g = self.inner.lock();
        (g.decisions.clone(), g.history.clone(), g.stalled)
    }
}

impl SchedHook for VirtualScheduler {
    fn yield_point(&self, txn: TxnId, ev: &SchedEvent) {
        let worker = self.inner.lock().txn_of.get(&txn.0).copied();
        let Some(i) = worker else { return };
        self.park(i);
        // Record once the worker actually proceeds, so history order is
        // execution order.
        let mut g = self.inner.lock();
        self.record_hook(&mut g, txn, ev);
    }

    fn observe(&self, txn: TxnId, ev: &SchedEvent) {
        let mut g = self.inner.lock();
        self.record_hook(&mut g, txn, ev);
    }

    fn on_block(&self, txn: TxnId, ev: &SchedEvent) {
        let mut g = self.inner.lock();
        let Some(&i) = g.txn_of.get(&txn.0) else { return };
        self.record_hook(&mut g, txn, ev);
        g.status[i] = Status::Blocked;
        if g.turn == Some(i) {
            g.turn = None;
        }
        self.decide(&mut g);
        // Return without waiting: the thread enters the real lock wait.
    }

    fn on_grant(&self, txn: TxnId, ev: &SchedEvent) {
        let mut g = self.inner.lock();
        let Some(&i) = g.txn_of.get(&txn.0) else { return };
        self.record_hook(&mut g, txn, ev);
        if g.status[i] == Status::Blocked {
            g.status[i] = Status::Ready;
        }
        // No decide: the releasing worker still holds the turn.
    }

    fn on_resume(&self, txn: TxnId) {
        let worker = self.inner.lock().txn_of.get(&txn.0).copied();
        let Some(i) = worker else { return };
        self.park(i);
    }
}
