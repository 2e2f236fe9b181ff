//! Deterministic interleaving explorer + serializability oracle for the
//! escrow protocol (the paper's §4 concurrency claims, made testable).
//!
//! The paper argues that E (escrow) locks admit exactly the concurrency
//! that commutativity allows: concurrent increments interleave freely,
//! while readers at each isolation level still see the values that level
//! promises. Those are statements about *all* interleavings, which timing-
//! based stress tests sample blindly. This module instead takes control of
//! the schedule:
//!
//! * [`sched`] — a cooperative virtual scheduler driving N scripted
//!   transactions as real threads with a single turn token. Yield points
//!   sit at every lock acquire, block, grant, commit and version publish
//!   (see the `SchedHook` seam in `txview-lock`); the scheduler records
//!   each decision as `(candidates, chosen)`, making every run replayable
//!   from its choice list.
//! * [`script`] — scenario/script definitions and the episode runner.
//! * [`oracle`] — the serializability oracle: escrow-aware conflict-graph
//!   acyclicity, final-state equivalence against some serial order,
//!   read-freshness at each isolation level, snapshot recomputation,
//!   FIFO fairness, and liveness.
//! * [`explore`] — bounded exhaustive DFS over all schedules plus a
//!   seeded PCT sampler for larger scripts.
//!
//! The canned scenarios below are the five fixed fixtures the test suite
//! and `run_torture --interleave` enumerate exhaustively, in both Escrow
//! and XLock maintenance modes.

pub mod explore;
pub mod oracle;
pub mod sched;
pub mod script;

pub use explore::{explore_dfs, explore_pct, replay, ExploreReport};
pub use oracle::{check_episode, check_fifo};
pub use sched::{Chooser, Event, EventKind, PctChooser, ReplayChooser, RotationChooser,
    VirtualScheduler};
pub use script::{chain_level_name, chain_names, run_episode, Action, End, Episode, SOp,
    Scenario, Script, TxnOutcome, CHAIN_TERMINAL};

use crate::catalog::MaintenanceMode;
use txview_txn::IsolationLevel;

fn rc(ops: Vec<SOp>, end: End) -> Script {
    Script { isolation: IsolationLevel::ReadCommitted, ops, end }
}

/// Scenario 1 — two escrow incrementers on the same hot group. Every
/// interleaving must commit both and sum the deltas.
pub fn escrow_vs_escrow(mode: MaintenanceMode) -> Scenario {
    Scenario {
        name: format!("escrow_vs_escrow/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            rc(vec![SOp::Insert { id: 3, grp: 1, amount: 7 }], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// Scenario 2 — escrow incrementer vs a Serializable reader that reads the
/// group twice. The reader must never see a half-applied increment and
/// both reads must agree.
pub fn escrow_vs_serializable_reader(mode: MaintenanceMode) -> Scenario {
    Scenario {
        name: format!("escrow_vs_serializable_reader/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            Script {
                isolation: IsolationLevel::Serializable,
                ops: vec![SOp::ReadGroup { grp: 1 }, SOp::ReadGroup { grp: 1 }],
                end: End::Commit,
            },
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// Scenario 3 — escrow incrementer vs a Snapshot reader. The reader never
/// blocks and must see exactly its snapshot, whatever the writer does.
pub fn escrow_vs_snapshot_reader(mode: MaintenanceMode) -> Scenario {
    Scenario {
        name: format!("escrow_vs_snapshot_reader/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            Script {
                isolation: IsolationLevel::Snapshot,
                ops: vec![SOp::ReadGroup { grp: 1 }, SOp::ReadGroup { grp: 1 }],
                end: End::Commit,
            },
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// Scenario 4 — ghost come and go: one transaction deletes the group's
/// last row (count → 0, ghost) while another inserts into the same group.
/// Exercises ghost revival vs ghost cleanup under every ordering.
pub fn ghost_come_and_go(mode: MaintenanceMode) -> Scenario {
    Scenario {
        name: format!("ghost_come_and_go/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Delete { id: 1 }], End::Commit),
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 7 }], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// Scenario 5 — a classic 2-transaction deadlock cycle on base rows
/// (same-value updates produce no view deltas, so only base X locks are
/// involved). Some interleavings deadlock: the detector must abort the
/// requester that closes the cycle, and the survivor must commit.
pub fn deadlock_cycle(mode: MaintenanceMode) -> Scenario {
    Scenario {
        name: format!("deadlock_cycle/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10), (2, 1, 20)],
        scripts: vec![
            rc(
                vec![
                    SOp::Update { id: 1, grp: 1, amount: 10 },
                    SOp::Update { id: 2, grp: 1, amount: 20 },
                ],
                End::Commit,
            ),
            rc(
                vec![
                    SOp::Update { id: 2, grp: 1, amount: 20 },
                    SOp::Update { id: 1, grp: 1, amount: 10 },
                ],
                End::Commit,
            ),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// The five fixed scenarios for one maintenance mode.
pub fn canned_scenarios(mode: MaintenanceMode) -> Vec<Scenario> {
    vec![
        escrow_vs_escrow(mode),
        escrow_vs_serializable_reader(mode),
        escrow_vs_snapshot_reader(mode),
        ghost_come_and_go(mode),
        deadlock_cycle(mode),
    ]
}

/// FIFO-fairness fixture (XLock mode so the writer takes an X view lock):
/// a Serializable reader holds S on the hot group to commit; a writer
/// blocks in X behind it; a second reader's S request arriving while the X
/// waits must not jump the queue.
pub fn fairness_scenario() -> Scenario {
    Scenario {
        name: "fifo_fairness/XLock".into(),
        mode: MaintenanceMode::XLock,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            Script {
                isolation: IsolationLevel::Serializable,
                ops: vec![SOp::ReadGroup { grp: 1 }],
                end: End::Commit,
            },
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            rc(vec![SOp::ReadGroup { grp: 1 }], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// Pipeline scenario A — leader handoff race: three escrow incrementers on
/// the same hot group, every one committing through the pipeline. Whichever
/// committer arrives first leads; the others either join its batch or are
/// promoted by the mid-round handoff / end-of-round promotion, in every
/// possible order. All three must ack durable and sum their deltas.
pub fn leader_handoff_race() -> Scenario {
    escrow_vs_escrow_3().with_pipeline()
}

fn escrow_vs_escrow_3() -> Scenario {
    Scenario {
        name: "leader_handoff_race/Escrow".into(),
        mode: MaintenanceMode::Escrow,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            rc(vec![SOp::Insert { id: 3, grp: 1, amount: 7 }], End::Commit),
            rc(vec![SOp::Insert { id: 4, grp: 1, amount: 9 }], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

/// Pipeline scenario B — two-batch overlap: two writers on *disjoint*
/// groups, so the commit pipeline is their only interaction. Schedules
/// where the second commit enqueues between the first leader's append and
/// its sync exercise the two-deep pipeline (batch N+1 forms and appends
/// while batch N's sync is in flight).
pub fn two_batch_overlap() -> Scenario {
    Scenario {
        name: "two_batch_overlap/Escrow".into(),
        mode: MaintenanceMode::Escrow,
        initial: vec![(1, 1, 10), (2, 2, 20)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 3, grp: 1, amount: 5 }], End::Commit),
            rc(vec![SOp::Insert { id: 4, grp: 2, amount: 7 }], End::Commit),
        ],
        groups: vec![1, 2],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
    .with_pipeline()
}

/// Pipeline scenario C — read race: an escrow incrementer committing
/// through the pipeline and an RC reader of the same group. The writer
/// holds its escrow lock until its commit record is durable, so the reader
/// sees the group either before the increment or after the ack, never
/// in between.
pub fn pipeline_read_race() -> Scenario {
    Scenario {
        name: "pipeline_read_race/Escrow".into(),
        mode: MaintenanceMode::Escrow,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            rc(vec![SOp::ReadGroup { grp: 1 }, SOp::ReadGroup { grp: 1 }], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
    .with_pipeline()
}

/// The three pipeline fixtures.
pub fn pipeline_scenarios() -> Vec<Scenario> {
    vec![leader_handoff_race(), two_batch_overlap(), pipeline_read_race()]
}

/// Chain fixture A — commit race across DAG depths: a 2-level derived
/// chain (`v → c0 → ctotal`) with two escrow incrementers on *disjoint*
/// base groups. Their cascades are disjoint at the `v` and `c0` depths but
/// collide on `ctotal`'s single global row, so every interleaving of the
/// two commit-time flushes (including fully overlapped ones) must commute
/// there and leave every chain level equal to recomputation.
pub fn chain_commit_race(mode: MaintenanceMode) -> Scenario {
    Scenario {
        name: format!("chain_commit_race/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10), (2, 2, 20)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 3, grp: 1, amount: 5 }], End::Commit),
            rc(vec![SOp::Insert { id: 4, grp: 2, amount: 7 }], End::Commit),
        ],
        groups: vec![1, 2],
        pipeline: false,
        minmax: false,
        chain_depth: 2,
    }
}

/// Chain fixture B — a reader vs an in-flight cascade: with the pipeline
/// on, an RC reader polls the *mid-chain* view `c0` twice while a writer's
/// increment cascades through it at commit. The reader must never observe
/// a half-propagated chain (the cascade flush runs before the commit
/// record, under chain-row locks held until the commit is durable).
pub fn cascade_reader() -> Scenario {
    Scenario {
        name: "cascade_reader/Escrow".into(),
        mode: MaintenanceMode::Escrow,
        initial: vec![(1, 1, 10)],
        scripts: vec![
            rc(vec![SOp::Insert { id: 2, grp: 1, amount: 5 }], End::Commit),
            rc(
                vec![SOp::ReadChain { level: 0, grp: 1 }, SOp::ReadChain { level: 0, grp: 1 }],
                End::Commit,
            ),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 2,
    }
    .with_pipeline()
}

/// The chain fixtures: the depth race in both maintenance modes, plus the
/// pipelined cascade reader.
pub fn chain_scenarios() -> Vec<Scenario> {
    vec![
        chain_commit_race(MaintenanceMode::Escrow),
        chain_commit_race(MaintenanceMode::XLock),
        cascade_reader(),
    ]
}

/// MIN/MAX fixture — extremum-delete race: transaction A deletes the row
/// holding the group MAX (forcing the paper's fallback: recompute the
/// group from base under an S object lock) while transaction B inserts a
/// new maximum into the same group. B's base insert (IX on the base
/// object, X on the view group row) collides with A's recompute window (S
/// on the base object, X on the same view row) in every order the
/// explorer can produce — including schedules where one blocks behind the
/// other's X and schedules that deadlock and pick a victim. Every
/// interleaving must leave the stored MIN/MAX/SUM equal to recomputation.
pub fn minmax_delete_race() -> Scenario {
    Scenario {
        name: "minmax_delete_race/XLock".into(),
        mode: MaintenanceMode::XLock,
        initial: vec![(1, 1, 10), (2, 1, 30), (3, 1, 20)],
        scripts: vec![
            rc(vec![SOp::Delete { id: 2 }], End::Commit),
            rc(vec![SOp::Insert { id: 4, grp: 1, amount: 50 }], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: true,
        chain_depth: 0,
    }
}

/// Three-transaction deadlock cycle over base rows 1→2→3→1 (same-value
/// updates: base locks only). Driven by a
/// [`RotationChooser`], every transaction grabs its first row, then all
/// three request the next row round-robin; the last requester closes the
/// cycle and must be the victim — and, having the highest TxnId, it is
/// also the youngest.
pub fn deadlock_cycle3(mode: MaintenanceMode) -> Scenario {
    let upd = |id: i64| SOp::Update { id, grp: 1, amount: 10 * id };
    Scenario {
        name: format!("deadlock_cycle3/{mode:?}"),
        mode,
        initial: vec![(1, 1, 10), (2, 1, 20), (3, 1, 30)],
        scripts: vec![
            rc(vec![upd(1), upd(2)], End::Commit),
            rc(vec![upd(2), upd(3)], End::Commit),
            rc(vec![upd(3), upd(1)], End::Commit),
        ],
        groups: vec![1],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}
