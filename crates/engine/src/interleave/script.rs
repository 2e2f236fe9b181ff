//! Transaction scripts and the episode runner.
//!
//! A [`Scenario`] is a fixed initial base table plus N transaction
//! [`Script`]s. [`run_episode`] builds a fresh in-memory database, installs
//! a [`VirtualScheduler`](super::sched::VirtualScheduler) as the lock
//! manager's hook, runs every script on its own worker thread under the
//! scheduler's turn token, and returns the full [`Episode`]: the decision
//! list (replayable), the event history, per-transaction outcomes, and the
//! final base/view state.
//!
//! Each worker also maintains a *shadow* of the base table (shared map
//! `id → (grp, amount)`, mutated only under the turn token, with a per-txn
//! undo log reverted on abort). The shadow is sound because base rows are
//! X-locked until commit, so between an op's success and the txn's end no
//! other worker can change the row. It gives the oracle exact view-group
//! deltas for Update/Delete without re-deriving them from engine internals.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{Error, Row, Value};
use txview_txn::IsolationLevel;

use crate::catalog::{AggSpec, MaintenanceMode, Predicate, ViewSource, ViewSpec};
use crate::db::Database;

use super::sched::{Chooser, Event, VirtualScheduler};

/// One scripted operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SOp {
    /// Insert `(id, grp, amount)` into the base table.
    Insert { id: i64, grp: i64, amount: i64 },
    /// Update row `id` to `(grp, amount)`.
    Update { id: i64, grp: i64, amount: i64 },
    /// Delete row `id`.
    Delete { id: i64 },
    /// Read the view row of `grp` (count, sum).
    ReadGroup { grp: i64 },
    /// Full view scan.
    ScanView,
    /// Read base row `id`.
    ReadRow { id: i64 },
    /// Read the derived chain view at identity `level` for `grp`. Only
    /// meaningful when the scenario has `chain_depth > level + 1` (identity
    /// levels mirror `v`'s `(count, sum)` per group, so the freshness
    /// oracle applies unchanged).
    ReadChain { level: usize, grp: i64 },
}

/// Name of the identity chain view at `level` (level 0 derives from `v`).
pub fn chain_level_name(level: usize) -> String {
    format!("c{level}")
}

/// Name of the terminal (global rollup) chain view.
pub const CHAIN_TERMINAL: &str = "ctotal";

/// Names of the derived chain views a scenario with `chain_depth` builds,
/// shallowest first; the last is the global rollup [`CHAIN_TERMINAL`].
pub fn chain_names(chain_depth: usize) -> Vec<String> {
    (0..chain_depth)
        .map(|d| if d + 1 == chain_depth { CHAIN_TERMINAL.into() } else { chain_level_name(d) })
        .collect()
}

/// How a script ends.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum End {
    /// Commit the transaction.
    Commit,
    /// Roll it back.
    Rollback,
}

/// One transaction's script.
#[derive(Clone, Debug)]
pub struct Script {
    /// Isolation level the transaction runs at.
    pub isolation: IsolationLevel,
    /// Operations, in order.
    pub ops: Vec<SOp>,
    /// Commit or rollback at the end.
    pub end: End,
}

/// A complete test scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Name for reports.
    pub name: String,
    /// View maintenance mode (escrow or xlock baseline).
    pub mode: MaintenanceMode,
    /// Initial committed base rows `(id, grp, amount)`.
    pub initial: Vec<(i64, i64, i64)>,
    /// The concurrent transactions.
    pub scripts: Vec<Script>,
    /// Universe of group keys the scenario can touch (for scan modeling).
    pub groups: Vec<i64>,
    /// Route commits through the leader-based group-commit pipeline.
    pub pipeline: bool,
    /// Give the view MIN/MAX aggregates (forcing X-mode maintenance with
    /// the recompute-on-extremum-delete fallback) in addition to the SUM.
    /// The view row grows to `(grp, count, sum, min, max)`; everything the
    /// oracle models reads the `(count, sum)` prefix, which is unchanged.
    pub minmax: bool,
    /// Depth of the derived-view chain stacked on `v` (0 = none). Levels
    /// `0..depth-1` are identity views (`group_by [0]`, sum of the sum
    /// column); the last level is a single-row global rollup.
    pub chain_depth: usize,
}

impl Scenario {
    /// The same scenario with commits routed through the group-commit
    /// pipeline. The name gains a `/pipeline` suffix so reports and replay
    /// commands stay unambiguous.
    pub fn with_pipeline(mut self) -> Scenario {
        self.pipeline = true;
        self.name = format!("{}/pipeline", self.name);
        self
    }
}

/// Script-level action recorded into the history.
#[derive(Clone, Debug)]
pub enum Action {
    /// Transaction began.
    Begin {
        /// Isolation level.
        isolation: IsolationLevel,
        /// Snapshot LSN (meaningful for Snapshot isolation).
        snapshot_lsn: u64,
    },
    /// A DML op finished (successfully or not).
    Write {
        /// Base row id written (Some for Insert/Update/Delete that reached
        /// the base table).
        base_write: Option<i64>,
        /// View-group deltas `(grp, dcount, dsum)` produced on success.
        deltas: Vec<(i64, i64, i64)>,
        /// Did the op succeed?
        ok: bool,
        /// Error text when it failed.
        err: Option<String>,
    },
    /// View point read: observed `(count, sum)` or None if group absent.
    Read {
        /// Group key.
        grp: i64,
        /// Observed aggregate, if the group was visible.
        observed: Option<(i64, i64)>,
    },
    /// Base row read: observed `(grp, amount)` or None.
    ReadRow {
        /// Row id.
        id: i64,
        /// Observed values.
        observed: Option<(i64, i64)>,
    },
    /// Full view scan: observed `(grp, count, sum)` rows.
    Scan {
        /// Observed rows in key order.
        observed: Vec<(i64, i64, i64)>,
    },
}

/// How a transaction ended.
#[derive(Clone, Debug)]
pub enum TxnOutcome {
    /// Committed at this LSN.
    Committed {
        /// Commit LSN.
        lsn: u64,
    },
    /// Rolled back (scripted or forced by deadlock/timeout).
    Aborted {
        /// Why.
        reason: String,
    },
}

/// Everything one worker produced.
#[derive(Clone, Debug)]
pub struct WorkerOutcome {
    /// Engine transaction id.
    pub txn: u64,
    /// Commit/abort.
    pub outcome: TxnOutcome,
}

/// Full result of one scheduled execution.
#[derive(Clone, Debug)]
pub struct Episode {
    /// Scheduler decisions `(n_candidates, chosen)` — the replay key.
    pub decisions: Vec<(usize, usize)>,
    /// Interleaved event history.
    pub history: Vec<Event>,
    /// Per-worker outcomes, indexed like `Scenario::scripts`.
    pub workers: Vec<WorkerOutcome>,
    /// Scheduler detected a stall (blocked workers, none runnable).
    pub stalled: bool,
    /// A worker thread panicked.
    pub panicked: bool,
    /// Final base table: id → (grp, amount).
    pub base_dump: BTreeMap<i64, (i64, i64)>,
    /// Final view: grp → (count, sum).
    pub view_dump: BTreeMap<i64, (i64, i64)>,
    /// `verify_view` error text, if the engine's own invariant failed.
    pub verify_error: Option<String>,
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::new("id", ValueType::Int),
            Column::new("grp", ValueType::Int),
            Column::new("amount", ValueType::Int),
        ],
        vec![0],
    )
    .expect("static schema")
}

fn build_db(sc: &Scenario) -> Arc<Database> {
    // 2s lock timeout doubles as the stall-recovery bound: if the virtual
    // scheduler ever wedges (oracle reports it), blocked workers time out
    // and the episode still terminates.
    let db = Database::new_in_memory_with(256, Duration::from_secs(2));
    if sc.pipeline {
        db.enable_commit_pipeline();
    }
    let t = db.create_table("items", schema()).expect("create table");
    let aggs = if sc.minmax {
        vec![AggSpec::SumInt { col: 2 }, AggSpec::Min { col: 2 }, AggSpec::Max { col: 2 }]
    } else {
        vec![AggSpec::SumInt { col: 2 }]
    };
    db.create_indexed_view(ViewSpec {
        name: "v".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs,
        filter: Predicate::True,
        maintenance: sc.mode,
        deferred: false,
        eager_group_delete: false,
    })
    .expect("create view");
    // Derived chain: each level sums the previous level's sum column; the
    // terminal level is the global rollup. Registered before the seed rows
    // so cascades — not the initial population scan — carry the deltas.
    let mut parent = "v".to_string();
    for (d, name) in chain_names(sc.chain_depth).into_iter().enumerate() {
        let group_by = if d + 1 == sc.chain_depth { vec![] } else { vec![0] };
        db.create_derived_view(&name, &parent, group_by, vec![AggSpec::SumInt { col: 2 }], sc.mode)
            .expect("create chain view");
        parent = name;
    }
    for &(id, grp, amount) in &sc.initial {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        db.insert(
            &mut txn,
            "items",
            Row::new(vec![Value::Int(id), Value::Int(grp), Value::Int(amount)]),
        )
        .expect("seed insert");
        db.commit(&mut txn).expect("seed commit");
    }
    db
}

type Shadow = HashMap<i64, (i64, i64)>;

/// Per-op shadow update; returns the view-group deltas of a *successful*
/// op and pushes the inverse onto the undo log.
fn shadow_apply(
    shadow: &mut Shadow,
    undo: &mut Vec<(i64, Option<(i64, i64)>)>,
    op: SOp,
) -> Vec<(i64, i64, i64)> {
    match op {
        SOp::Insert { id, grp, amount } => {
            undo.push((id, shadow.insert(id, (grp, amount))));
            vec![(grp, 1, amount)]
        }
        SOp::Update { id, grp, amount } => {
            let old = shadow.insert(id, (grp, amount));
            undo.push((id, old));
            let (og, oa) = old.expect("engine accepted update ⇒ row existed");
            if og == grp {
                vec![(grp, 0, amount - oa)]
            } else {
                vec![(og, -1, -oa), (grp, 1, amount)]
            }
        }
        SOp::Delete { id } => {
            let old = shadow.remove(&id);
            undo.push((id, old));
            let (og, oa) = old.expect("engine accepted delete ⇒ row existed");
            vec![(og, -1, -oa)]
        }
        SOp::ReadGroup { .. } | SOp::ScanView | SOp::ReadRow { .. } | SOp::ReadChain { .. } => {
            Vec::new()
        }
    }
}

fn shadow_revert(shadow: &mut Shadow, undo: &mut Vec<(i64, Option<(i64, i64)>)>) {
    while let Some((id, old)) = undo.pop() {
        match old {
            Some(v) => {
                shadow.insert(id, v);
            }
            None => {
                shadow.remove(&id);
            }
        }
    }
}

fn row_to_group(r: &Row) -> (i64, i64, i64) {
    let grp = r.get(0).as_int().expect("group col");
    let count = r.get(1).as_int().expect("count col");
    let sum = r.get(2).as_int().expect("sum col");
    (grp, count, sum)
}

fn run_worker(
    db: Arc<Database>,
    sched: Arc<VirtualScheduler>,
    shadow: Arc<Mutex<Shadow>>,
    i: usize,
    script: Script,
) -> WorkerOutcome {
    sched.attach(i);
    // Begin under the turn token so TxnId allocation order is scheduled.
    let mut txn = db.begin(script.isolation);
    let tid = txn.id;
    sched.register_txn(i, tid);
    sched.record_action(
        txn.id,
        Action::Begin { isolation: script.isolation, snapshot_lsn: txn.snapshot_lsn.0 },
    );
    let mut undo: Vec<(i64, Option<(i64, i64)>)> = Vec::new();

    for &op in &script.ops {
        // Snapshot ops take no locks, so give them an explicit yield point;
        // locking ops yield inside `LockManager::acquire`.
        if script.isolation == IsolationLevel::Snapshot {
            sched.script_yield(tid);
        }
        let res: Result<Action, Error> = match op {
            SOp::Insert { id, grp, amount } => db
                .insert(
                    &mut txn,
                    "items",
                    Row::new(vec![Value::Int(id), Value::Int(grp), Value::Int(amount)]),
                )
                .map(|()| {
                    let deltas = shadow_apply(&mut shadow.lock(), &mut undo, op);
                    Action::Write { base_write: Some(id), deltas, ok: true, err: None }
                }),
            SOp::Update { id, grp, amount } => db
                .update(
                    &mut txn,
                    "items",
                    Row::new(vec![Value::Int(id), Value::Int(grp), Value::Int(amount)]),
                )
                .map(|()| {
                    let deltas = shadow_apply(&mut shadow.lock(), &mut undo, op);
                    Action::Write { base_write: Some(id), deltas, ok: true, err: None }
                }),
            SOp::Delete { id } => db.delete(&mut txn, "items", &[Value::Int(id)]).map(|()| {
                let deltas = shadow_apply(&mut shadow.lock(), &mut undo, op);
                Action::Write { base_write: Some(id), deltas, ok: true, err: None }
            }),
            SOp::ReadGroup { grp } => db
                .view_lookup(&mut txn, "v", &[Value::Int(grp)])
                .map(|row| Action::Read {
                    grp,
                    observed: row.map(|r| {
                        let (_, c, s) = row_to_group(&r);
                        (c, s)
                    }),
                }),
            SOp::ScanView => db.view_scan(&mut txn, "v", None, None).map(|rows| Action::Scan {
                observed: rows.iter().map(row_to_group).collect(),
            }),
            SOp::ReadChain { level, grp } => db
                .view_lookup(&mut txn, &chain_level_name(level), &[Value::Int(grp)])
                .map(|row| Action::Read {
                    grp,
                    observed: row.map(|r| {
                        let (_, c, s) = row_to_group(&r);
                        (c, s)
                    }),
                }),
            SOp::ReadRow { id } => db.get_row(&mut txn, "items", &[Value::Int(id)]).map(|row| {
                Action::ReadRow {
                    id,
                    observed: row.map(|r| {
                        (
                            r.get(1).as_int().expect("grp col"),
                            r.get(2).as_int().expect("amount col"),
                        )
                    }),
                }
            }),
        };
        match res {
            Ok(action) => sched.record_action(tid, action),
            Err(e @ (Error::NotFound(_) | Error::DuplicateKey(_))) => {
                // Benign: record and continue the script.
                sched.record_action(
                    tid,
                    Action::Write {
                        base_write: None,
                        deltas: Vec::new(),
                        ok: false,
                        err: Some(e.to_string()),
                    },
                );
            }
            Err(e) => {
                // Deadlock victim / lock timeout: the transaction must roll
                // back. Revert the shadow before releasing locks.
                shadow_revert(&mut shadow.lock(), &mut undo);
                sched.record_action(
                    tid,
                    Action::Write {
                        base_write: None,
                        deltas: Vec::new(),
                        ok: false,
                        err: Some(e.to_string()),
                    },
                );
                let _ = db.rollback(&mut txn);
                sched.finish(i);
                return WorkerOutcome {
                    txn: tid.0,
                    outcome: TxnOutcome::Aborted { reason: e.to_string() },
                };
            }
        }
    }

    let outcome = match script.end {
        End::Commit => match db.commit(&mut txn) {
            Ok(lsn) => TxnOutcome::Committed { lsn: lsn.0 },
            Err(e) => {
                shadow_revert(&mut shadow.lock(), &mut undo);
                let _ = db.rollback(&mut txn);
                TxnOutcome::Aborted { reason: e.to_string() }
            }
        },
        End::Rollback => {
            shadow_revert(&mut shadow.lock(), &mut undo);
            match db.rollback(&mut txn) {
                Ok(()) => TxnOutcome::Aborted { reason: "scripted rollback".into() },
                Err(e) => TxnOutcome::Aborted { reason: format!("rollback failed: {e}") },
            }
        }
    };
    sched.finish(i);
    WorkerOutcome { txn: tid.0, outcome }
}

/// Run one episode of `scenario` under `chooser`. Deterministic: the same
/// chooser decisions reproduce the same episode bit-for-bit.
pub fn run_episode(scenario: &Scenario, chooser: Box<dyn Chooser>) -> Episode {
    let db = build_db(scenario);
    let n = scenario.scripts.len();
    let sched = VirtualScheduler::new(n, chooser);
    let shadow: Arc<Mutex<Shadow>> = Arc::new(Mutex::new(
        scenario.initial.iter().map(|&(id, g, a)| (id, (g, a))).collect(),
    ));

    db.locks().set_hook(Some(sched.clone() as Arc<dyn txview_lock::SchedHook>));
    let mut handles = Vec::with_capacity(n);
    for (i, script) in scenario.scripts.iter().cloned().enumerate() {
        let (db, sched, shadow) = (db.clone(), sched.clone(), shadow.clone());
        handles.push(std::thread::spawn(move || run_worker(db, sched, shadow, i, script)));
    }
    let mut workers = Vec::with_capacity(n);
    let mut panicked = false;
    for h in handles {
        match h.join() {
            Ok(w) => workers.push(w),
            Err(_) => {
                panicked = true;
                workers.push(WorkerOutcome {
                    txn: 0,
                    outcome: TxnOutcome::Aborted { reason: "worker panicked".into() },
                });
            }
        }
    }
    db.locks().set_hook(None);

    let (decisions, history, stalled) = sched.results();
    // Ghost cleanup so the view dump reflects visible rows only, then the
    // engine's own cross-check.
    let _ = db.run_ghost_cleanup();
    let mut verify_error = db.harness().verify_view("v").err().map(|e| e.to_string());
    // Chain views must match both a full recomputation from the base table
    // and a one-level fold of their immediate parent.
    for name in chain_names(scenario.chain_depth) {
        if verify_error.is_some() {
            break;
        }
        verify_error = db
            .harness().verify_view(&name)
            .and_then(|()| db.harness().verify_view_from_parent(&name))
            .err()
            .map(|e| format!("chain view {name}: {e}"));
    }

    let mut base_dump = BTreeMap::new();
    for r in db.harness().dump_table("items").expect("dump table") {
        let id = r.get(0).as_int().expect("id");
        let grp = r.get(1).as_int().expect("grp");
        let amount = r.get(2).as_int().expect("amount");
        base_dump.insert(id, (grp, amount));
    }
    let mut view_dump = BTreeMap::new();
    for r in db.harness().dump_view("v").expect("dump view") {
        let (grp, count, sum) = row_to_group(&r);
        view_dump.insert(grp, (count, sum));
    }

    Episode {
        decisions,
        history,
        workers,
        stalled,
        panicked,
        base_dump,
        view_dump,
        verify_error,
    }
}
