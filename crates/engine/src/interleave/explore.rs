//! Schedule exploration: exhaustive bounded DFS and seeded PCT sampling.
//!
//! Both run real episodes via [`run_episode`] and feed each resulting
//! history to the [`oracle`](super::oracle). The DFS is the classic
//! stateless-model-checking loop (CHESS-style): run one episode under a
//! [`ReplayChooser`] for a decision prefix, then branch every decision
//! point after the prefix into its unexplored alternatives. Because an
//! episode is fully determined by its choice list, a violation report is a
//! one-line replay recipe: `replay(scenario, choices)`.

use super::oracle::check_episode;
use super::sched::{PctChooser, ReplayChooser};
use super::script::{run_episode, Episode, Scenario};

/// What an exploration found.
#[derive(Clone, Debug, Default)]
pub struct ExploreReport {
    /// Episodes executed.
    pub schedules: u64,
    /// True when the schedule budget ran out before the frontier emptied.
    pub truncated: bool,
    /// Violations: (replay choice list, message).
    pub violations: Vec<(Vec<usize>, String)>,
    /// Episodes in which at least one transaction aborted as a deadlock
    /// victim or lock timeout (expected in cycle scenarios).
    pub aborted_schedules: u64,
    /// Longest decision list seen.
    pub max_decisions: usize,
    /// Episodes in which some committer parked behind a group-commit
    /// leader (a `LogForceWait` in the history) — non-vacuity evidence for
    /// the pipeline fixtures.
    pub follower_wait_schedules: u64,
    /// Episodes in which at least one committer flushed a non-empty
    /// cascade queue (a `CascadeFlush` yield in the history) — non-vacuity
    /// evidence for the derived-chain fixtures.
    pub cascade_flush_schedules: u64,
    /// Episodes in which some transaction *blocked* waiting for an X-mode
    /// lock — non-vacuity evidence for the X-lock maintenance fixtures
    /// (e.g. the MIN/MAX delete race: the recompute window must actually
    /// serialize against the concurrent writer in some schedules).
    pub xlock_wait_schedules: u64,
}

fn executed_choices(ep: &Episode) -> Vec<usize> {
    ep.decisions.iter().map(|&(_, pick)| pick).collect()
}

fn scan_episode(report: &mut ExploreReport, sc: &Scenario, ep: &Episode, choices: &[usize]) {
    report.schedules += 1;
    report.max_decisions = report.max_decisions.max(ep.decisions.len());
    if ep.history.iter().any(|e| {
        matches!(
            e.kind,
            super::sched::EventKind::Hook(txview_lock::SchedEvent::LogForceWait { .. })
        )
    }) {
        report.follower_wait_schedules += 1;
    }
    if ep.history.iter().any(|e| {
        matches!(
            e.kind,
            super::sched::EventKind::Hook(txview_lock::SchedEvent::CascadeFlush { .. })
        )
    }) {
        report.cascade_flush_schedules += 1;
    }
    if ep.history.iter().any(|e| {
        matches!(
            e.kind,
            super::sched::EventKind::Hook(txview_lock::SchedEvent::LockBlocked {
                mode: txview_lock::LockMode::X,
                ..
            })
        )
    }) {
        report.xlock_wait_schedules += 1;
    }
    if ep.workers.iter().any(|w| {
        matches!(&w.outcome, super::script::TxnOutcome::Aborted { reason }
            if reason.contains("deadlock") || reason.contains("timeout"))
    }) {
        report.aborted_schedules += 1;
    }
    for v in check_episode(sc, ep) {
        report.violations.push((choices.to_vec(), v));
    }
}

/// Exhaustively explore every interleaving of `sc`, up to `max_schedules`
/// episodes (the frontier is abandoned beyond that and `truncated` set).
pub fn explore_dfs(sc: &Scenario, max_schedules: u64) -> ExploreReport {
    let mut report = ExploreReport::default();
    // Stack of decision prefixes still to run; [] is the canonical
    // lowest-index-first schedule.
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        if report.schedules >= max_schedules {
            report.truncated = true;
            break;
        }
        let ep = run_episode(sc, Box::new(ReplayChooser::new(prefix.clone())));
        let executed = executed_choices(&ep);
        scan_episode(&mut report, sc, &ep, &executed);
        // Branch every decision at or beyond the prefix into alternatives
        // not yet taken. Decisions inside the prefix were branched by the
        // episode that produced them.
        for (i, &(ncand, _)) in ep.decisions.iter().enumerate().skip(prefix.len()) {
            for alt in 1..ncand {
                let mut next = executed[..i].to_vec();
                next.push(alt);
                frontier.push(next);
            }
        }
    }
    report
}

/// PCT-style random exploration: `runs` episodes seeded `seed..seed+runs`,
/// each with `changes` priority-change points.
pub fn explore_pct(sc: &Scenario, seed: u64, runs: u64, changes: usize) -> ExploreReport {
    let mut report = ExploreReport::default();
    for r in 0..runs {
        let chooser = PctChooser::new(seed.wrapping_add(r), changes, 200);
        let ep = run_episode(sc, Box::new(chooser));
        let executed = executed_choices(&ep);
        scan_episode(&mut report, sc, &ep, &executed);
    }
    report
}

/// Re-run one schedule from its choice list; returns the episode and any
/// oracle violations. This is the one-line reproduction entry point for a
/// violation printed by either explorer.
pub fn replay(sc: &Scenario, choices: &[usize]) -> (Episode, Vec<String>) {
    let ep = run_episode(sc, Box::new(ReplayChooser::new(choices.to_vec())));
    let violations = check_episode(sc, &ep);
    (ep, violations)
}
