//! Exhaustive interleaving exploration of the five canned scenarios, in
//! both maintenance modes, with the serializability oracle as judge.

use txview_engine::interleave::{self, explore_dfs, replay, RotationChooser};
use txview_engine::MaintenanceMode;

const CAP: u64 = 200_000;

fn assert_clean(sc: &interleave::Scenario, min_schedules: u64) {
    let report = explore_dfs(sc, CAP);
    assert!(!report.truncated, "[{}] exploration truncated at {CAP}", sc.name);
    assert!(
        report.schedules >= min_schedules,
        "[{}] only {} schedules explored; yield points missing?",
        sc.name,
        report.schedules
    );
    if let Some((choices, msg)) = report.violations.first() {
        panic!(
            "[{}] {} violations; first: {msg}\nreplay: interleave::replay(&sc, &{choices:?})",
            sc.name,
            report.violations.len()
        );
    }
}

#[test]
fn escrow_vs_escrow_exhaustive() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        assert_clean(&interleave::escrow_vs_escrow(mode), 2);
    }
}

#[test]
fn escrow_vs_serializable_reader_exhaustive() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        assert_clean(&interleave::escrow_vs_serializable_reader(mode), 2);
    }
}

#[test]
fn escrow_vs_snapshot_reader_exhaustive() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        assert_clean(&interleave::escrow_vs_snapshot_reader(mode), 2);
    }
}

#[test]
fn ghost_come_and_go_exhaustive() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        assert_clean(&interleave::ghost_come_and_go(mode), 2);
    }
}

#[test]
fn deadlock_cycle_exhaustive() {
    for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
        let sc = interleave::deadlock_cycle(mode);
        let report = explore_dfs(&sc, CAP);
        assert!(!report.truncated, "[{}] truncated", sc.name);
        assert!(
            report.violations.is_empty(),
            "[{}] first violation: {}",
            sc.name,
            report.violations[0].1
        );
        // Non-vacuity: some interleavings must actually deadlock.
        assert!(
            report.aborted_schedules > 0,
            "[{}] no schedule deadlocked — the cycle fixture is broken",
            sc.name
        );
    }
}

#[test]
fn replay_is_deterministic() {
    let sc = interleave::escrow_vs_escrow(MaintenanceMode::Escrow);
    // Perturbed schedule: at each decision, prefer the other worker.
    let choices = vec![1, 1, 1, 1, 1];
    let (a, va) = replay(&sc, &choices);
    let (b, vb) = replay(&sc, &choices);
    assert_eq!(va, vb);
    assert_eq!(a.decisions, b.decisions, "same choices must reproduce the same decisions");
    assert_eq!(a.history.len(), b.history.len());
    for (x, y) in a.history.iter().zip(b.history.iter()) {
        assert_eq!(x.txn, y.txn, "same choices must reproduce the same history");
    }
    assert_eq!(a.base_dump, b.base_dump);
    assert_eq!(a.view_dump, b.view_dump);
}

/// Satellite: under a deterministic 3-transaction cycle, the deadlock
/// detector must abort the transaction that closes the cycle — which, with
/// round-robin scheduling, is the youngest (highest TxnId).
#[test]
fn deadlock_victim_is_youngest() {
    let sc = interleave::deadlock_cycle3(MaintenanceMode::Escrow);
    let ep = interleave::run_episode(&sc, Box::new(RotationChooser::new()));
    let violations = interleave::check_episode(&sc, &ep);
    assert!(violations.is_empty(), "first violation: {}", violations[0]);

    let aborted: Vec<u64> = ep
        .workers
        .iter()
        .filter(|w| matches!(w.outcome, interleave::TxnOutcome::Aborted { .. }))
        .map(|w| w.txn)
        .collect();
    assert_eq!(aborted.len(), 1, "exactly one victim expected, got {aborted:?}");
    let max_txn = ep.workers.iter().map(|w| w.txn).max().unwrap();
    assert_eq!(
        aborted[0], max_txn,
        "victim must be the youngest transaction (highest TxnId)"
    );
    // And the victim is recorded in the history as such.
    let victim_evs = ep
        .history
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                interleave::EventKind::Hook(txview_lock::SchedEvent::DeadlockVictim { .. })
            )
        })
        .count();
    assert!(victim_evs >= 1, "DeadlockVictim event missing from history");
}

/// Satellite: FIFO fairness. Exhaustively explore the 3-transaction
/// reader/writer/reader fixture; the oracle's no-overtake rule must hold
/// in every schedule.
#[test]
fn fifo_fairness_exhaustive() {
    let sc = interleave::fairness_scenario();
    let report = explore_dfs(&sc, CAP);
    assert!(!report.truncated, "truncated at {CAP}");
    assert!(
        report.violations.is_empty(),
        "{} violations; first: {}",
        report.violations.len(),
        report.violations[0].1
    );
    assert!(report.schedules >= 10, "only {} schedules", report.schedules);
}

/// Pipeline fixture: an escrow writer racing an RC reader of its group,
/// exhaustively explored with an exact admitted-schedule drift gate (the
/// same canary idea as the `escrow_vs_escrow` gates in `run_torture
/// --interleave`: any drift means the yield-point set or the pipeline
/// protocol changed). Escrow locks are held to durability, so the reader
/// never observes a not-yet-durable increment.
#[test]
fn pipeline_read_race_exhaustive() {
    let sc = interleave::pipeline_read_race();
    let r = explore_dfs(&sc, CAP);
    assert!(!r.truncated, "[{}] truncated", sc.name);
    assert!(r.violations.is_empty(), "[{}] first: {}", sc.name, r.violations[0].1);
    assert_eq!(r.schedules, 556, "[{}] schedule-count drift", sc.name);
}

/// Pipeline fixture: two-batch overlap (disjoint groups, the pipeline is
/// the only interaction). The full tree is 137,566 schedules — gated
/// exactly in `run_torture --interleave` full mode; here a deterministic
/// 4,000-schedule DFS prefix runs with its own drift gate. (The tree was
/// 167,596 before the leader-retention fix: a leader now keeps
/// leadership through its sync when nobody is promotable, which removes
/// the self-lead branches and turns them into follower parks.)
#[test]
fn pipeline_two_batch_overlap_capped() {
    let sc = interleave::two_batch_overlap();
    let r = explore_dfs(&sc, 4_000);
    assert!(r.truncated, "[{}] tree shrank below the cap", sc.name);
    assert!(r.violations.is_empty(), "[{}] first: {}", sc.name, r.violations[0].1);
    // Non-vacuity + drift gate: schedules where a committer parks behind an
    // active leader must exist, in a deterministic count.
    assert_eq!(r.follower_wait_schedules, 1_760, "[{}] follower drift", sc.name);
}

/// Pipeline fixture: 3-committer leader handoff race. The full tree is
/// astronomically large; a deterministic DFS prefix plus PCT sampling
/// cover it, with a follower-count drift gate on the prefix.
#[test]
fn pipeline_leader_handoff_race_capped() {
    let sc = interleave::leader_handoff_race();
    let r = explore_dfs(&sc, 1_500);
    assert!(r.truncated, "[{}] tree shrank below the cap", sc.name);
    assert!(r.violations.is_empty(), "[{}] first: {}", sc.name, r.violations[0].1);
    assert_eq!(r.follower_wait_schedules, 500, "[{}] follower drift", sc.name);

    let p = interleave::explore_pct(&sc, 0xC0FFEE, 50, 3);
    assert!(p.violations.is_empty(), "[{}] PCT first: {}", sc.name, p.violations[0].1);
    assert!(p.follower_wait_schedules > 0, "[{}] PCT saw no followers", sc.name);
}

/// Chain fixture: two incrementers on disjoint base groups whose cascades
/// collide only on the terminal global rollup. The full tree is enormous
/// (the two commit-time flushes each add escrow acquires at every chain
/// level), so a deterministic 4,000-schedule DFS prefix runs with drift
/// gates: every explored schedule must flush a non-empty cascade queue,
/// and the deepest decision list is pinned exactly.
#[test]
fn chain_commit_race_capped() {
    for (mode, max_dec) in [(MaintenanceMode::Escrow, 26), (MaintenanceMode::XLock, 27)] {
        let sc = interleave::chain_commit_race(mode);
        let r = explore_dfs(&sc, 4_000);
        assert!(r.truncated, "[{}] tree shrank below the cap", sc.name);
        assert!(r.violations.is_empty(), "[{}] first: {}", sc.name, r.violations[0].1);
        assert_eq!(
            r.cascade_flush_schedules, r.schedules,
            "[{}] some schedule committed without a cascade flush",
            sc.name
        );
        assert_eq!(r.max_decisions, max_dec, "[{}] decision-depth drift", sc.name);

        let p = interleave::explore_pct(&sc, 0xC0FFEE, 50, 3);
        assert!(p.violations.is_empty(), "[{}] PCT first: {}", sc.name, p.violations[0].1);
        assert!(p.cascade_flush_schedules > 0, "[{}] PCT saw no flushes", sc.name);
    }
}

/// Chain fixture: a pipelined writer's in-flight cascade vs an RC reader
/// of the mid-chain view, exhaustively explored with exact drift gates.
#[test]
fn cascade_reader_exhaustive() {
    let sc = interleave::cascade_reader();
    let r = explore_dfs(&sc, CAP);
    assert!(!r.truncated, "[{}] truncated at {CAP}", sc.name);
    assert!(r.violations.is_empty(), "[{}] first: {}", sc.name, r.violations[0].1);
    assert_eq!(r.schedules, 2_446, "[{}] schedule-count drift", sc.name);
    assert_eq!(
        r.cascade_flush_schedules, 2_446,
        "[{}] flush non-vacuity: every schedule cascades",
        sc.name
    );
}

/// MIN/MAX fixture: extremum delete (recompute-from-base under the S
/// object lock) racing a same-group insert of a new maximum, exhaustively
/// explored. The schedule count is pinned exactly (any drift means the
/// yield-point set or the recompute lock protocol changed), X-lock waits
/// get a non-vacuity floor (the recompute window must actually serialize
/// against the writer somewhere), and some schedules must deadlock (the S
/// object lock vs IX base-object lock inversion) and recover cleanly.
#[test]
fn minmax_delete_race_exhaustive() {
    let sc = interleave::minmax_delete_race();
    let r = explore_dfs(&sc, CAP);
    assert!(!r.truncated, "[{}] truncated at {CAP}", sc.name);
    if let Some((choices, msg)) = r.violations.first() {
        panic!(
            "[{}] {} violations; first: {msg}\nreplay: interleave::replay(&sc, &{choices:?})",
            sc.name,
            r.violations.len()
        );
    }
    assert_eq!(r.schedules, 1_766, "[{}] schedule-count drift", sc.name);
    assert!(
        r.xlock_wait_schedules >= 500,
        "[{}] only {} schedules blocked on an X lock — recompute never contended",
        sc.name,
        r.xlock_wait_schedules
    );
    assert!(
        r.aborted_schedules > 0,
        "[{}] no schedule deadlocked — the lock-order inversion is gone",
        sc.name
    );
}

/// Replay determinism through the pipeline code path: same choices must
/// reproduce the same decisions, history, and state with group commit
/// enabled.
#[test]
fn pipeline_replay_is_deterministic() {
    let sc = interleave::pipeline_read_race();
    let choices = vec![1, 1, 0, 1, 0, 1, 1, 0];
    let (a, va) = replay(&sc, &choices);
    let (b, vb) = replay(&sc, &choices);
    assert_eq!(va, vb);
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.history.len(), b.history.len());
    assert_eq!(a.base_dump, b.base_dump);
    assert_eq!(a.view_dump, b.view_dump);
}

/// Non-vacuity for the FIFO rule: a synthetic history in which a later S
/// request is granted while an earlier incompatible X request still waits
/// MUST be flagged.
#[test]
fn fifo_rule_flags_synthetic_overtake() {
    use interleave::{Event, EventKind};
    use txview_common::IndexId;
    use txview_lock::{LockMode, LockName, SchedEvent};

    let name = LockName::key(IndexId(7), vec![1]);
    let ev = |seq: u64, txn: u64, kind: SchedEvent| Event {
        seq,
        worker: txn as usize,
        txn,
        kind: EventKind::Hook(kind),
    };
    let history = vec![
        // Txn 1 blocks in X.
        ev(0, 1, SchedEvent::LockRequest { name: name.clone(), mode: LockMode::X }),
        ev(1, 1, SchedEvent::LockBlocked { name: name.clone(), mode: LockMode::X, converting: false }),
        // Txn 2 requests S afterwards and is granted first: overtake.
        ev(2, 2, SchedEvent::LockRequest { name: name.clone(), mode: LockMode::S }),
        ev(3, 2, SchedEvent::LockGranted { name: name.clone(), mode: LockMode::S, converting: false }),
        ev(4, 1, SchedEvent::LockGranted { name: name.clone(), mode: LockMode::X, converting: false }),
    ];
    let v = interleave::check_fifo(&history);
    assert_eq!(v.len(), 1, "synthetic overtake must be flagged, got {v:?}");
    assert!(v[0].contains("FIFO violation"), "{}", v[0]);

    // Control: grant order respecting the queue is clean.
    let history_ok = vec![
        ev(0, 1, SchedEvent::LockRequest { name: name.clone(), mode: LockMode::X }),
        ev(1, 1, SchedEvent::LockBlocked { name: name.clone(), mode: LockMode::X, converting: false }),
        ev(2, 2, SchedEvent::LockRequest { name: name.clone(), mode: LockMode::S }),
        ev(3, 1, SchedEvent::LockGranted { name: name.clone(), mode: LockMode::X, converting: false }),
        ev(4, 2, SchedEvent::LockGranted { name: name.clone(), mode: LockMode::S, converting: false }),
    ];
    assert!(interleave::check_fifo(&history_ok).is_empty());
}
