//! Differential property tests for MIN/MAX view maintenance.
//!
//! A random stream of inserts / updates / deletes (with the delete mix
//! deliberately biased toward the current extremum, the expensive
//! recompute-from-base path) runs against a MIN/MAX/AVG view while a plain
//! in-process `BTreeMap` model tracks the committed base rows. After the
//! stream the stored view must be byte-identical to a full recomputation —
//! both the engine's own (`verify_view`) and an *independent* one computed
//! here from the model. Streams include transaction rollbacks, savepoint partial
//! rollbacks, and (in the second property) a hard crash at an arbitrary
//! durable event followed by recovery.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Row, Value};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};
use txview_storage::fault::{FaultClock, FaultDisk, FaultPoint, FaultSchedule};
use txview_wal::FaultLogStore;

const VIEW: &str = "reading_stats";
const GROUPS: i64 = 4;

/// Committed (or in-flight) base state: id → (group, value).
type Model = BTreeMap<i64, (i64, i64)>;

#[derive(Clone, Debug)]
enum Fate {
    Commit,
    Rollback,
    /// Roll back to the most recent savepoint of the transaction (if one
    /// was taken), then commit what is left.
    Partial,
}

#[derive(Clone, Debug)]
enum Op {
    Insert { grp: i64, val: i64 },
    /// Delete the row currently holding the group MAX — the recompute path.
    DeleteMax { grp: i64 },
    /// Delete the row currently holding the group MIN — the recompute path.
    DeleteMin { grp: i64 },
    /// Delete an arbitrary live row (usually non-extremal, the cheap path).
    DeleteAny { pick: usize },
    /// Rewrite a live row, possibly moving it to another group.
    Update { pick: usize, grp: i64, val: i64 },
    Savepoint,
    Boundary(Fate),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let grp = 0..GROUPS;
    let val = 1i64..=60;
    prop_oneof![
        5 => (grp.clone(), val.clone()).prop_map(|(grp, val)| Op::Insert { grp, val }),
        2 => (0..GROUPS).prop_map(|grp| Op::DeleteMax { grp }),
        2 => (0..GROUPS).prop_map(|grp| Op::DeleteMin { grp }),
        2 => any::<usize>().prop_map(|pick| Op::DeleteAny { pick }),
        2 => (any::<usize>(), grp, val).prop_map(|(pick, grp, val)| Op::Update { pick, grp, val }),
        1 => Just(Op::Savepoint),
        3 => Just(Op::Boundary(Fate::Commit)),
        1 => Just(Op::Boundary(Fate::Rollback)),
        1 => Just(Op::Boundary(Fate::Partial)),
    ]
}

/// readings(id, grp, val) + a MIN/MAX/AVG view in XLock maintenance.
fn setup(db: &Arc<Database>) {
    let t = db
        .create_table(
            "readings",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("grp", ValueType::Int),
                    Column::new("val", ValueType::Int),
                ],
                vec![0],
            )
            .unwrap(),
        )
        .unwrap();
    db.create_indexed_view(ViewSpec {
        name: VIEW.into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![
            AggSpec::SumInt { col: 2 },
            AggSpec::Min { col: 2 },
            AggSpec::Max { col: 2 },
            AggSpec::Avg { col: 2, float: false },
        ],
        filter: Predicate::True,
        maintenance: MaintenanceMode::XLock,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
}

/// Pick the live row id holding the extremum of `grp` (ties broken by
/// lowest id so the choice is deterministic). None if the group is empty.
fn extremum_of(model: &Model, grp: i64, max: bool) -> Option<i64> {
    let mut best: Option<(i64, i64)> = None; // (val, id)
    for (&id, &(g, v)) in model {
        if g != grp {
            continue;
        }
        let better = match best {
            None => true,
            Some((bv, _)) if max => v > bv,
            Some((bv, _)) => v < bv,
        };
        if better {
            best = Some((v, id));
        }
    }
    best.map(|(_, id)| id)
}

fn nth_id(model: &Model, pick: usize) -> Option<i64> {
    if model.is_empty() {
        None
    } else {
        model.keys().nth(pick % model.len()).copied()
    }
}

struct StreamOutcome {
    /// State after the last *acknowledged* commit.
    acked: Model,
    /// If a commit call returned an error (crash during the commit
    /// protocol), the state it was trying to commit — recovery may
    /// legitimately surface either `acked` or this.
    inflight: Option<Model>,
    /// The whole stream ran without a single error.
    completed: bool,
}

/// Drive the op stream. A crash does not error subsequent calls — the
/// fault layer keeps absorbing writes into the doomed image — so with a
/// `clock` the stream stops (and acks stop counting) the moment the crash
/// fires, exactly like the torture harness. In a fault-free run every call
/// must succeed.
fn drive(db: &Arc<Database>, ops: &[Op], clock: Option<&FaultClock>) -> StreamOutcome {
    let mut acked: Model = Model::new();
    let mut pending: Model = acked.clone();
    let mut next_id = 0i64;
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let mut sp: Option<(usize, Model)> = None;

    let fired = || clock.is_some_and(|c| c.fired());
    macro_rules! attempt {
        ($call:expr) => {
            if $call.is_err() || fired() {
                // Mid-transaction failure or crash: the open txn has no
                // commit record at the crash point, so it is a loser.
                return StreamOutcome { acked, inflight: None, completed: false };
            }
        };
    }

    for op in ops {
        match op {
            Op::Insert { grp, val } => {
                let id = next_id;
                next_id += 1;
                attempt!(db.insert(&mut txn, "readings", row![id, *grp, *val]));
                pending.insert(id, (*grp, *val));
            }
            Op::DeleteMax { grp } => {
                if let Some(id) = extremum_of(&pending, *grp, true) {
                    attempt!(db.delete(&mut txn, "readings", &[Value::Int(id)]));
                    pending.remove(&id);
                }
            }
            Op::DeleteMin { grp } => {
                if let Some(id) = extremum_of(&pending, *grp, false) {
                    attempt!(db.delete(&mut txn, "readings", &[Value::Int(id)]));
                    pending.remove(&id);
                }
            }
            Op::DeleteAny { pick } => {
                if let Some(id) = nth_id(&pending, *pick) {
                    attempt!(db.delete(&mut txn, "readings", &[Value::Int(id)]));
                    pending.remove(&id);
                }
            }
            Op::Update { pick, grp, val } => {
                if let Some(id) = nth_id(&pending, *pick) {
                    attempt!(db.update(&mut txn, "readings", row![id, *grp, *val]));
                    pending.insert(id, (*grp, *val));
                }
            }
            Op::Savepoint => {
                sp = Some((db.savepoint(&txn), pending.clone()));
            }
            Op::Boundary(fate) => {
                match fate {
                    Fate::Commit => {
                        // A commit the crash interrupted (error, or Ok with
                        // the crash firing during its flush) may or may not
                        // have reached durability — either outcome is legal.
                        if db.commit(&mut txn).is_err() || fired() {
                            return StreamOutcome {
                                acked,
                                inflight: Some(pending),
                                completed: false,
                            };
                        }
                        acked = pending.clone();
                    }
                    Fate::Rollback => {
                        attempt!(db.rollback(&mut txn));
                        pending = acked.clone();
                    }
                    Fate::Partial => {
                        if let Some((tok, snap)) = sp.take() {
                            attempt!(db.rollback_to_savepoint(&mut txn, tok));
                            pending = snap;
                        }
                        if db.commit(&mut txn).is_err() || fired() {
                            return StreamOutcome {
                                acked,
                                inflight: Some(pending),
                                completed: false,
                            };
                        }
                        acked = pending.clone();
                    }
                }
                sp = None;
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
        }
    }
    // Close the trailing open transaction.
    if db.commit(&mut txn).is_err() || fired() {
        return StreamOutcome { acked, inflight: Some(pending), completed: false };
    }
    acked = pending;
    StreamOutcome { acked, inflight: None, completed: true }
}

fn model_rows(model: &Model) -> Vec<Row> {
    model.iter().map(|(&id, &(g, v))| row![id, g, v]).collect()
}

/// Independent full recomputation: derive every group's COUNT/SUM/MIN/MAX
/// from `model` in plain Rust and compare against what the view answers
/// (`view_lookup` via `view_aggregates`).
fn check_against_model(db: &Arc<Database>, model: &Model) {
    db.verify_view(VIEW).unwrap(); // the engine's own recompute
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 0..GROUPS {
        let vals: Vec<i64> =
            model.values().filter(|(grp, _)| *grp == g).map(|&(_, v)| v).collect();
        let group = [Value::Int(g)];
        let got = db.view_aggregates(&mut txn, VIEW, &group).unwrap();
        if vals.is_empty() {
            if let Some((count, _)) = got {
                assert_eq!(count, 0, "group {} should be empty", g);
            }
            assert_eq!(db.view_avg(&mut txn, VIEW, &group, 3).unwrap(), Value::Null);
        } else {
            let (count, aggs) = got.expect("live group missing from view");
            let sum: i64 = vals.iter().sum();
            let min = *vals.iter().min().unwrap();
            let max = *vals.iter().max().unwrap();
            assert_eq!(count, vals.len() as i64, "COUNT of group {}", g);
            assert_eq!(&aggs[0], &Value::Int(sum), "SUM of group {}", g);
            assert_eq!(&aggs[1], &Value::Int(min), "MIN of group {}", g);
            assert_eq!(&aggs[2], &Value::Int(max), "MAX of group {}", g);
            // AVG is stored as a running SUM; the quotient is derived at
            // read time.
            assert_eq!(&aggs[3], &Value::Int(sum), "AVG backing SUM of group {}", g);
            assert_eq!(
                db.view_avg(&mut txn, VIEW, &group, 3).unwrap(),
                Value::Float(sum as f64 / vals.len() as f64)
            );
        }
    }
    db.commit(&mut txn).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Fault-free streams: after any mix of inserts, extremum deletes,
    /// updates, rollbacks, and savepoint partial rollbacks, the stored
    /// MIN/MAX/AVG view equals a full recomputation on every group.
    #[test]
    fn minmax_stream_matches_full_recompute(
        ops in prop::collection::vec(arb_op(), 1..200),
    ) {
        let db = Database::new_in_memory(1024);
        setup(&db);
        let out = drive(&db, &ops, None);
        prop_assert!(out.completed, "fault-free stream hit an engine error");
        prop_assert_eq!(db.dump_table("readings").unwrap(), model_rows(&out.acked));
        check_against_model(&db, &out.acked);
    }
}

proptest! {
    // Each case builds a fault-injected database and runs full recovery —
    // keep the case count modest.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Crash mid-stream: arm a hard crash at an arbitrary durable event,
    /// run the stream into it, recover, and require (a) the recovered base
    /// is exactly the acked state — or the one commit that was in flight
    /// when the crash hit, atomically — and (b) the recovered view equals
    /// an independent full recomputation from that base.
    #[test]
    fn crash_mid_stream_recovers_to_a_recomputable_state(
        ops in prop::collection::vec(arb_op(), 1..80),
        offset in 0u64..160,
    ) {
        let clock = FaultClock::new();
        let disk = FaultDisk::new(Arc::clone(&clock));
        let store = FaultLogStore::new(Arc::clone(&clock));
        let db = Database::with_parts(
            Arc::new(disk.clone()),
            Box::new(store.clone()),
            256,
            Duration::from_secs(2),
        )
        .unwrap();
        let c = Arc::clone(&clock);
        db.pool().set_crash_probe(Arc::new(move |p| {
            c.tick(FaultPoint::Probe(p));
        }));
        let c = Arc::clone(&clock);
        db.log().set_crash_probe(Arc::new(move |p| {
            c.tick(FaultPoint::Probe(p));
        }));
        setup(&db);
        db.checkpoint().unwrap();
        let catalog = db.export_catalog();

        clock.arm(&FaultSchedule::crash_at(offset));
        let out = drive(&db, &ops, Some(&clock));
        let fired = clock.fired();
        prop_assert!(fired || out.completed, "stream stopped without a crash");
        drop(db);

        disk.crash_restore();
        store.crash_restore();
        clock.disarm();
        let (db, _recovery) = Database::with_parts_recovered(
            Arc::new(disk.clone()),
            Box::new(store.clone()),
            Some(&catalog),
            256,
            Duration::from_secs(2),
        )
        .unwrap();
        let _ = db.run_ghost_cleanup().unwrap();

        // Which state survived? Acked, always — unless the crash landed
        // inside a commit, which may surface whole or not at all.
        let base = db.dump_table("readings").unwrap();
        let survivor = if base == model_rows(&out.acked) {
            out.acked.clone()
        } else if let Some(inflight) = &out.inflight {
            prop_assert_eq!(
                &base,
                &model_rows(inflight),
                "recovered base is neither the acked state nor the in-flight commit"
            );
            inflight.clone()
        } else {
            prop_assert_eq!(
                &base,
                &model_rows(&out.acked),
                "recovered base does not match the acked state"
            );
            unreachable!()
        };
        check_against_model(&db, &survivor);
    }
}

