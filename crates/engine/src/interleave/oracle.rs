//! The serializability oracle: decides whether one [`Episode`] is a
//! correct execution of its [`Scenario`].
//!
//! Checks, in order:
//!
//! 1. **Liveness** — the scheduler never stalled and no worker panicked.
//! 2. **Engine invariant** — `verify_view` passed on the final state.
//! 3. **Conflict-graph acyclicity** — committed transactions, with
//!    escrow-aware conflict rules: commuting increment deltas on the same
//!    view group do *not* conflict with each other, but do conflict with
//!    group reads; base writes conflict on row id; reads enter the graph
//!    only for Serializable transactions (short RC read locks are not 2PL
//!    and promise no serialization point).
//! 4. **Final-state equivalence** — the final base table *and* view equal
//!    the outcome of some serial order of the committed scripts.
//! 5. **Locking-read freshness** — every RC/Serializable view read
//!    observed exactly `initial + Σ(deltas of transactions committed
//!    before the read) + own prior deltas`; in particular an RC read never
//!    observes an uncommitted foreign delta.
//! 6. **Serializable repeatable reads** — same group read twice in one
//!    Serializable transaction yields the same value.
//! 7. **Snapshot consistency** — snapshot reads equal a recomputation from
//!    exactly the transactions with `commit_lsn ≤ snapshot_lsn`.
//! 8. **FIFO fairness** — a request that arrives while an incompatible
//!    request is already waiting must not be granted first.
//! 9. **Victim bookkeeping** — a transaction with a `DeadlockVictim` event
//!    must have aborted.
//!
//! Every violation message carries enough context to debug from the
//! episode's decision list alone.

use std::collections::{BTreeMap, HashMap};

use txview_lock::SchedEvent;
use txview_txn::IsolationLevel;

use super::script::{Action, End, Episode, SOp, Scenario, TxnOutcome};
use super::sched::{Event, EventKind};

/// Per-transaction digest extracted from the history.
struct TxnView<'a> {
    worker: usize,
    txn: u64,
    isolation: IsolationLevel,
    committed: bool,
    /// Sequence of the `Committed` hook event (the commit point).
    committed_seq: Option<u64>,
    commit_lsn: Option<u64>,
    snapshot_lsn: u64,
    /// Script-level actions in order: (seq, action, matching script op).
    actions: Vec<(u64, &'a Action, Option<SOp>)>,
}

fn digest<'a>(sc: &Scenario, ep: &'a Episode) -> Vec<TxnView<'a>> {
    let mut views: Vec<TxnView<'a>> = Vec::new();
    for (i, w) in ep.workers.iter().enumerate() {
        let script = &sc.scripts[i];
        let mut tv = TxnView {
            worker: i,
            txn: w.txn,
            isolation: script.isolation,
            committed: matches!(w.outcome, TxnOutcome::Committed { .. }),
            committed_seq: None,
            commit_lsn: match w.outcome {
                TxnOutcome::Committed { lsn } => Some(lsn),
                TxnOutcome::Aborted { .. } => None,
            },
            snapshot_lsn: 0,
            actions: Vec::new(),
        };
        let mut op_cursor = 0usize;
        for ev in &ep.history {
            if ev.txn != w.txn {
                continue;
            }
            match &ev.kind {
                EventKind::Action(a @ Action::Begin { snapshot_lsn, .. }) => {
                    tv.snapshot_lsn = *snapshot_lsn;
                    tv.actions.push((ev.seq, a, None));
                }
                EventKind::Action(a) => {
                    let op = script.ops.get(op_cursor).copied();
                    op_cursor += 1;
                    tv.actions.push((ev.seq, a, op));
                }
                // The transaction's visibility point.
                EventKind::Hook(SchedEvent::Committed { commit_lsn }) => {
                    tv.committed_seq = Some(ev.seq);
                    tv.commit_lsn.get_or_insert(*commit_lsn);
                }
                EventKind::Hook(_) => {}
            }
        }
        views.push(tv);
    }
    views
}

/// All group keys the scenario can possibly touch.
fn group_universe(sc: &Scenario) -> Vec<i64> {
    let mut groups: Vec<i64> = sc.groups.clone();
    for &(_, g, _) in &sc.initial {
        groups.push(g);
    }
    for s in &sc.scripts {
        for op in &s.ops {
            match *op {
                SOp::Insert { grp, .. }
                | SOp::Update { grp, .. }
                | SOp::ReadGroup { grp }
                | SOp::ReadChain { grp, .. } => groups.push(grp),
                _ => {}
            }
        }
    }
    groups.sort_unstable();
    groups.dedup();
    groups
}

fn initial_aggs(sc: &Scenario) -> BTreeMap<i64, (i64, i64)> {
    let mut out: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for &(_, g, a) in &sc.initial {
        let e = out.entry(g).or_insert((0, 0));
        e.0 += 1;
        e.1 += a;
    }
    out
}

/// Group aggregate `(count, sum)` predicted at history position `at_seq`
/// for transaction `me`: initial + committed-before deltas + own prior
/// deltas.
fn predicted_agg(
    views: &[TxnView<'_>],
    initial: &BTreeMap<i64, (i64, i64)>,
    grp: i64,
    at_seq: u64,
    me: u64,
) -> (i64, i64) {
    let (mut count, mut sum) = initial.get(&grp).copied().unwrap_or((0, 0));
    for tv in views {
        let include_all =
            tv.txn != me && tv.committed && tv.committed_seq.map(|s| s < at_seq).unwrap_or(false);
        for (seq, action, _) in &tv.actions {
            let mine = tv.txn == me && *seq < at_seq;
            if !include_all && !mine {
                continue;
            }
            if let Action::Write { deltas, ok: true, .. } = action {
                for &(g, dc, ds) in deltas {
                    if g == grp {
                        count += dc;
                        sum += ds;
                    }
                }
            }
        }
    }
    (count, sum)
}

/// Group aggregate predicted for a snapshot at `snapshot_lsn`.
fn snapshot_agg(
    views: &[TxnView<'_>],
    initial: &BTreeMap<i64, (i64, i64)>,
    grp: i64,
    snapshot_lsn: u64,
) -> (i64, i64) {
    let (mut count, mut sum) = initial.get(&grp).copied().unwrap_or((0, 0));
    for tv in views {
        let visible =
            tv.committed && tv.commit_lsn.map(|lsn| lsn <= snapshot_lsn).unwrap_or(false);
        if !visible {
            continue;
        }
        for (_, action, _) in &tv.actions {
            if let Action::Write { deltas, ok: true, .. } = action {
                for &(g, dc, ds) in deltas {
                    if g == grp {
                        count += dc;
                        sum += ds;
                    }
                }
            }
        }
    }
    (count, sum)
}

/// Conflict-graph node actions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CAction {
    BaseWrite(i64),
    BaseRead(i64),
    Delta(i64),
    GroupRead(i64),
}

fn conflicts(a: CAction, b: CAction) -> bool {
    use CAction::*;
    match (a, b) {
        (BaseWrite(x), BaseWrite(y)) => x == y,
        (BaseWrite(x), BaseRead(y)) | (BaseRead(x), BaseWrite(y)) => x == y,
        (Delta(x), GroupRead(y)) | (GroupRead(x), Delta(y)) => x == y,
        // The escrow-aware rule: increments on the same group commute.
        (Delta(_), Delta(_)) => false,
        _ => false,
    }
}

fn check_conflict_graph(sc: &Scenario, views: &[TxnView<'_>], out: &mut Vec<String>) {
    let universe = group_universe(sc);
    // (txn index in `nodes`, seq, action) for committed txns only.
    let mut nodes: Vec<u64> = Vec::new();
    let mut acts: Vec<(usize, u64, CAction)> = Vec::new();
    for tv in views {
        if !tv.committed {
            continue;
        }
        let idx = nodes.len();
        nodes.push(tv.txn);
        let serializable = tv.isolation == IsolationLevel::Serializable;
        for (seq, action, op) in &tv.actions {
            match action {
                Action::Write { deltas, ok: true, base_write, .. } => {
                    if let Some(id) = base_write {
                        acts.push((idx, *seq, CAction::BaseWrite(*id)));
                    }
                    for &(g, dc, ds) in deltas {
                        if dc != 0 || ds != 0 {
                            acts.push((idx, *seq, CAction::Delta(g)));
                        }
                    }
                }
                Action::Read { grp, .. } if serializable => {
                    acts.push((idx, *seq, CAction::GroupRead(*grp)));
                }
                Action::ReadRow { id, .. } if serializable => {
                    acts.push((idx, *seq, CAction::BaseRead(*id)));
                }
                Action::Scan { .. } if serializable => {
                    // A phantom-protected scan reads every group.
                    for &g in &universe {
                        acts.push((idx, *seq, CAction::GroupRead(g)));
                    }
                }
                _ => {
                    let _ = op;
                }
            }
        }
    }
    // Edges T→U when T's action precedes a conflicting action of U.
    let n = nodes.len();
    let mut adj = vec![vec![false; n]; n];
    for (i, (ti, si, ai)) in acts.iter().enumerate() {
        for (tj, sj, aj) in acts.iter().skip(i + 1) {
            if ti == tj || !conflicts(*ai, *aj) {
                continue;
            }
            if si < sj {
                adj[*ti][*tj] = true;
            } else {
                adj[*tj][*ti] = true;
            }
        }
    }
    // Cycle detection (colors: 0 white, 1 grey, 2 black).
    let mut color = vec![0u8; n];
    fn dfs(v: usize, adj: &[Vec<bool>], color: &mut [u8]) -> bool {
        color[v] = 1;
        for (u, &edge) in adj[v].iter().enumerate() {
            if !edge {
                continue;
            }
            if color[u] == 1 {
                return true;
            }
            if color[u] == 0 && dfs(u, adj, color) {
                return true;
            }
        }
        color[v] = 2;
        false
    }
    for v in 0..n {
        if color[v] == 0 && dfs(v, &adj, &mut color) {
            out.push(format!(
                "[{}] conflict graph over committed txns {:?} has a cycle \
                 (history is not conflict-serializable)",
                sc.name, nodes
            ));
            return;
        }
    }
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    let mut used = vec![false; n];
    fn rec(n: usize, cur: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(n, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(n, &mut cur, &mut used, &mut out);
    out
}

/// Serial model execution of the committed scripts in `order`.
fn serial_final(
    sc: &Scenario,
    order: &[usize],
) -> (BTreeMap<i64, (i64, i64)>, BTreeMap<i64, (i64, i64)>) {
    let mut base: BTreeMap<i64, (i64, i64)> =
        sc.initial.iter().map(|&(id, g, a)| (id, (g, a))).collect();
    for &w in order {
        for op in &sc.scripts[w].ops {
            match *op {
                SOp::Insert { id, grp, amount } => {
                    base.entry(id).or_insert((grp, amount));
                }
                SOp::Update { id, grp, amount } => {
                    if let Some(v) = base.get_mut(&id) {
                        *v = (grp, amount);
                    }
                }
                SOp::Delete { id } => {
                    base.remove(&id);
                }
                SOp::ReadGroup { .. } | SOp::ScanView | SOp::ReadRow { .. }
                | SOp::ReadChain { .. } => {}
            }
        }
    }
    let mut view: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for (_, (g, a)) in &base {
        let e = view.entry(*g).or_insert((0, 0));
        e.0 += 1;
        e.1 += a;
    }
    (base, view)
}

fn check_final_state(sc: &Scenario, views: &[TxnView<'_>], ep: &Episode, out: &mut Vec<String>) {
    let committed: Vec<usize> = views
        .iter()
        .filter(|tv| tv.committed && sc.scripts[tv.worker].end == End::Commit)
        .map(|tv| tv.worker)
        .collect();
    for perm in permutations(committed.len()) {
        let order: Vec<usize> = perm.iter().map(|&i| committed[i]).collect();
        let (base, view) = serial_final(sc, &order);
        if base == ep.base_dump && view == ep.view_dump {
            return;
        }
    }
    out.push(format!(
        "[{}] final state matches NO serial order of committed txns: \
         base={:?} view={:?}",
        sc.name, ep.base_dump, ep.view_dump
    ));
}

fn check_reads(sc: &Scenario, views: &[TxnView<'_>], out: &mut Vec<String>) {
    let initial = initial_aggs(sc);
    let universe = group_universe(sc);
    for tv in views {
        let mut wrote_base = false;
        let mut seen: HashMap<i64, Option<(i64, i64)>> = HashMap::new();
        for (seq, action, _) in &tv.actions {
            if let Action::Write { ok: true, base_write: Some(_), .. } = action {
                wrote_base = true;
            }
            match (tv.isolation, action) {
                (IsolationLevel::Snapshot, Action::Read { grp, observed }) => {
                    if wrote_base {
                        continue; // read-own-writes under snapshot: out of scope
                    }
                    let (c, s) = snapshot_agg(views, &initial, *grp, tv.snapshot_lsn);
                    let expect = if c > 0 { Some((c, s)) } else { None };
                    if *observed != expect {
                        out.push(format!(
                            "[{}] txn {} snapshot read of group {grp} at seq {seq} observed \
                             {observed:?}, but snapshot lsn {} recomputes to {expect:?}",
                            sc.name, tv.txn, tv.snapshot_lsn
                        ));
                    }
                }
                (IsolationLevel::Snapshot, Action::Scan { observed }) => {
                    if wrote_base {
                        continue;
                    }
                    let expect: Vec<(i64, i64, i64)> = universe
                        .iter()
                        .filter_map(|&g| {
                            let (c, s) = snapshot_agg(views, &initial, g, tv.snapshot_lsn);
                            (c > 0).then_some((g, c, s))
                        })
                        .collect();
                    if *observed != expect {
                        out.push(format!(
                            "[{}] txn {} snapshot scan at seq {seq} observed {observed:?}, \
                             but snapshot lsn {} recomputes to {expect:?}",
                            sc.name, tv.txn, tv.snapshot_lsn
                        ));
                    }
                }
                (_, Action::Read { grp, observed }) => {
                    // Locking read (RC or Serializable): exact freshness.
                    let (c, s) = predicted_agg(views, &initial, *grp, *seq, tv.txn);
                    let expect = if c > 0 { Some((c, s)) } else { None };
                    if *observed != expect {
                        out.push(format!(
                            "[{}] txn {} ({:?}) read of group {grp} at seq {seq} observed \
                             {observed:?}, expected {expect:?} (initial + committed-before + \
                             own deltas) — an uncommitted or lost delta was observed",
                            sc.name, tv.txn, tv.isolation
                        ));
                    }
                    if tv.isolation == IsolationLevel::Serializable {
                        if let Some(prev) = seen.get(grp) {
                            if prev != observed {
                                out.push(format!(
                                    "[{}] txn {} (Serializable) re-read of group {grp} at \
                                     seq {seq} observed {observed:?} after first observing \
                                     {prev:?} — repeatable read broken",
                                    sc.name, tv.txn
                                ));
                            }
                        }
                        seen.insert(*grp, *observed);
                    }
                }
                (IsolationLevel::Serializable, Action::Scan { observed }) => {
                    let expect: Vec<(i64, i64, i64)> = universe
                        .iter()
                        .filter_map(|&g| {
                            let (c, s) = predicted_agg(views, &initial, g, *seq, tv.txn);
                            (c > 0).then_some((g, c, s))
                        })
                        .collect();
                    if *observed != expect {
                        out.push(format!(
                            "[{}] txn {} serializable scan at seq {seq} observed \
                             {observed:?}, expected {expect:?}",
                            sc.name, tv.txn
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

/// FIFO fairness: while transaction A is blocked on lock `N` (a plain,
/// non-converting request), a later non-converting request on `N` whose
/// mode is incompatible with A's must not be granted before A. Public so
/// the fairness regression test can also feed it synthetic histories
/// (non-vacuity: the rule must actually fire on an overtake).
pub fn check_fifo(history: &[Event]) -> Vec<String> {
    let mut out = Vec::new();
    for ev in history {
        let EventKind::Hook(SchedEvent::LockBlocked { name, mode, converting: false }) = &ev.kind
        else {
            continue;
        };
        let (a_txn, a_seq, a_mode) = (ev.txn, ev.seq, *mode);
        // A's eventual grant of this blocked request.
        let Some(a_grant) = history.iter().find_map(|e| match &e.kind {
            EventKind::Hook(SchedEvent::LockGranted { name: n, converting: false, .. })
                if e.txn == a_txn && e.seq > a_seq && n == name =>
            {
                Some(e.seq)
            }
            _ => None,
        }) else {
            continue; // A never granted (victim/timeout): nothing to order.
        };
        for req in history {
            let EventKind::Hook(SchedEvent::LockRequest { name: rn, mode: rm }) = &req.kind else {
                continue;
            };
            if req.txn == a_txn || rn != name || !(a_seq < req.seq && req.seq < a_grant) {
                continue;
            }
            if rm.compatible(a_mode) {
                continue; // Compatible requests may be granted together.
            }
            // A requester that already holds the lock (covered re-request or
            // conversion) legitimately bypasses the queue.
            let holds = history
                .iter()
                .filter(|e| e.txn == req.txn && e.seq < req.seq)
                .fold(false, |held, e| match &e.kind {
                    EventKind::Hook(SchedEvent::LockGranted { name: n, .. }) if n == name => true,
                    EventKind::Hook(SchedEvent::LockReleased { name: n }) if n == name => false,
                    _ => held,
                });
            if holds {
                continue;
            }
            let b_grant = history.iter().find_map(|e| match &e.kind {
                EventKind::Hook(SchedEvent::LockGranted { name: n, converting: false, .. })
                    if e.txn == req.txn && e.seq > req.seq && n == name =>
                {
                    Some(e.seq)
                }
                _ => None,
            });
            if let Some(b_grant) = b_grant {
                if b_grant < a_grant {
                    out.push(format!(
                        "FIFO violation on {name}: txn {} blocked in {a_mode} at seq {a_seq} \
                         was overtaken by txn {} ({rm} requested at seq {}, granted at seq \
                         {b_grant} before seq {a_grant})",
                        a_txn, req.txn, req.seq
                    ));
                }
            }
        }
    }
    out
}

fn check_victims(sc: &Scenario, views: &[TxnView<'_>], ep: &Episode, out: &mut Vec<String>) {
    for ev in &ep.history {
        if let EventKind::Hook(SchedEvent::DeadlockVictim { .. }) = ev.kind {
            let committed = views.iter().any(|tv| tv.txn == ev.txn && tv.committed);
            if committed {
                out.push(format!(
                    "[{}] txn {} was chosen as deadlock victim at seq {} yet committed",
                    sc.name, ev.txn, ev.seq
                ));
            }
        }
    }
}

/// Run every oracle rule against one episode. Empty result = correct.
pub fn check_episode(sc: &Scenario, ep: &Episode) -> Vec<String> {
    let mut out = Vec::new();
    if ep.stalled {
        out.push(format!(
            "[{}] scheduler stall: blocked workers with no runnable worker \
             (deadlock detection failed to break a cycle)",
            sc.name
        ));
    }
    if ep.panicked {
        out.push(format!("[{}] a worker thread panicked", sc.name));
    }
    if let Some(e) = &ep.verify_error {
        out.push(format!("[{}] verify_view failed on final state: {e}", sc.name));
    }
    let views = digest(sc, ep);
    check_conflict_graph(sc, &views, &mut out);
    check_final_state(sc, &views, ep, &mut out);
    check_reads(sc, &views, &mut out);
    for v in check_fifo(&ep.history) {
        out.push(format!("[{}] {v}", sc.name));
    }
    check_victims(sc, &views, ep, &mut out);
    out
}
