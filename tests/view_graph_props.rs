//! Differential property tests for the view-dependency DAG: random view
//! graphs (≤ 4 levels over the base view) × random delta streams, judged
//! against a naive recompute-every-view reference model.
//!
//! Three claims per program:
//!
//! 1. **Byte-identical finals** — every view's `dump_view` output equals
//!    the naive model's recomputation, and a *coalesced* run equals an
//!    *eager* run (cascade applied at op time) row for row.
//! 2. **Exactly-once refresh** — in the coalesced run, each committing
//!    transaction refreshes each dirty (view, group) exactly once, however
//!    many deltas it produced (asserted on the engine's cascade trace).
//! 3. **Engine invariants** — `verify_view` (recompute from base) and
//!    `verify_view_from_parent` (one-level fold of the immediate parent)
//!    pass for every view, including after crash recovery mid-stream.

use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};
use txview_repro::prelude::*;
use txview_repro::row;

/// One derived node of the random DAG: parent index (0 = the base view
/// `v0`, `i+1` = the i-th derived view) and whether it is a global rollup
/// (empty `group_by`) or an identity level (`group_by [0]`).
#[derive(Clone, Copy, Debug)]
struct Node {
    parent: usize,
    global: bool,
}

#[derive(Clone, Debug)]
enum Op {
    Insert { id: i64, grp: i64, amount: i64 },
    Update { id: i64, grp: i64, amount: i64 },
    Delete { id: i64 },
    Commit,
    Rollback,
    Crash { seed: u64 },
}

fn arb_node() -> impl Strategy<Value = (u8, bool)> {
    (any::<u8>(), any::<bool>())
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..24, 0i64..4, 1i64..100)
            .prop_map(|(id, grp, amount)| Op::Insert { id, grp, amount }),
        3 => (0i64..24, 0i64..4, 1i64..100)
            .prop_map(|(id, grp, amount)| Op::Update { id, grp, amount }),
        2 => (0i64..24).prop_map(|id| Op::Delete { id }),
        3 => Just(Op::Commit),
        1 => Just(Op::Rollback),
        1 => any::<u64>().prop_map(|seed| Op::Crash { seed }),
    ]
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
    .unwrap()
}

fn view_name(idx: usize) -> String {
    if idx == 0 { "v0".into() } else { format!("d{idx}") }
}

/// Resolve raw strategy output into a DAG capped at 4 levels: node `i`'s
/// parent is drawn from the views that exist before it, reparented to the
/// base view whenever the draw would exceed the depth cap.
fn resolve_dag(raw: &[(u8, bool)]) -> Vec<Node> {
    let mut levels = vec![0usize]; // v0
    let mut nodes = Vec::with_capacity(raw.len());
    for (i, &(pseed, global)) in raw.iter().enumerate() {
        let mut parent = (pseed as usize) % (i + 1);
        if levels[parent] >= 3 {
            parent = 0;
        }
        levels.push(levels[parent] + 1);
        nodes.push(Node { parent, global });
    }
    nodes
}

fn build_db(dag: &[Node]) -> std::sync::Arc<Database> {
    let db = Database::new_in_memory(512);
    let t = db.create_table("items", schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "v0".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    for (i, n) in dag.iter().enumerate() {
        let group_by = if n.global { vec![] } else { vec![0] };
        db.create_derived_view(
            &view_name(i + 1),
            &view_name(n.parent),
            group_by,
            vec![AggSpec::SumInt { col: 2 }],
            MaintenanceMode::Escrow,
        )
        .unwrap();
    }
    db
}

/// The naive reference: recompute every view bottom-up from the base
/// model. Every view in these DAGs stores one group column, so a view's
/// contents are `key → (count, sum)`; ghost groups (count 0) are absent.
fn naive_views(dag: &[Node], model: &HashMap<i64, (i64, i64)>) -> Vec<BTreeMap<i64, (i64, i64)>> {
    let mut views: Vec<BTreeMap<i64, (i64, i64)>> = Vec::with_capacity(dag.len() + 1);
    let mut v0 = BTreeMap::new();
    for (_, (grp, amount)) in model {
        let e = v0.entry(*grp).or_insert((0i64, 0i64));
        e.0 += 1;
        e.1 += amount;
    }
    views.push(v0);
    for n in dag {
        let parent = &views[n.parent];
        let view = if n.global {
            let (mut c, mut s) = (0i64, 0i64);
            for (pc, ps) in parent.values() {
                c += pc;
                s += ps;
            }
            if c > 0 { BTreeMap::from([(0, (c, s))]) } else { BTreeMap::new() }
        } else {
            parent.clone()
        };
        views.push(view);
    }
    views
}

fn dump(db: &Database, idx: usize) -> BTreeMap<i64, (i64, i64)> {
    db.harness().dump_view(&view_name(idx))
        .unwrap()
        .iter()
        .map(|r| {
            (
                r.get(0).as_int().unwrap(),
                (r.get(1).as_int().unwrap(), r.get(2).as_int().unwrap()),
            )
        })
        .collect()
}

fn check_all(dag: &[Node], db: &Database, model: &HashMap<i64, (i64, i64)>, label: &str) {
    let expected = naive_views(dag, model);
    for idx in 0..=dag.len() {
        let name = view_name(idx);
        db.harness().verify_view(&name).unwrap_or_else(|e| panic!("[{label}] verify {name}: {e}"));
        db.harness().verify_view_from_parent(&name)
            .unwrap_or_else(|e| panic!("[{label}] parent-fold {name}: {e}"));
        let got = dump(db, idx);
        assert_eq!(got, expected[idx], "[{label}] {name} diverged from naive recomputation");
    }
}

/// Drive the same op stream through `db`, mirroring it into a committed /
/// pending model pair; checks every view at each quiesced point.
fn run_stream(
    dag: &[Node],
    db: &std::sync::Arc<Database>,
    ops: &[Op],
    label: &str,
) -> HashMap<i64, (i64, i64)> {
    let mut committed: HashMap<i64, (i64, i64)> = HashMap::new();
    let mut pending = committed.clone();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for op in ops {
        match *op {
            Op::Insert { id, grp, amount } => {
                let res = db.insert(&mut txn, "items", row![id, grp, amount]);
                if let std::collections::hash_map::Entry::Vacant(e) = pending.entry(id) {
                    res.unwrap();
                    e.insert((grp, amount));
                } else {
                    assert!(matches!(res, Err(Error::DuplicateKey(_))));
                }
            }
            Op::Update { id, grp, amount } => {
                let res = db.update(&mut txn, "items", row![id, grp, amount]);
                if let std::collections::hash_map::Entry::Occupied(mut e) = pending.entry(id) {
                    res.unwrap();
                    e.insert((grp, amount));
                } else {
                    assert!(matches!(res, Err(Error::NotFound(_))));
                }
            }
            Op::Delete { id } => {
                let res = db.delete(&mut txn, "items", &[Value::Int(id)]);
                if pending.contains_key(&id) {
                    res.unwrap();
                    pending.remove(&id);
                } else {
                    assert!(matches!(res, Err(Error::NotFound(_))));
                }
            }
            Op::Commit => {
                db.commit(&mut txn).unwrap();
                committed = pending.clone();
                check_all(dag, db, &committed, label);
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
            Op::Rollback => {
                db.rollback(&mut txn).unwrap();
                pending = committed.clone();
                check_all(dag, db, &committed, label);
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
            Op::Crash { seed } => {
                // The open transaction's work — including its queued
                // cascades — must vanish.
                std::mem::forget(txn);
                db.log().flush_all().unwrap();
                db.crash_and_recover(0.5, seed).unwrap();
                pending = committed.clone();
                check_all(dag, db, &committed, label);
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
        }
    }
    db.commit(&mut txn).unwrap();
    check_all(dag, db, &pending, label);
    pending
}

fn run_differential(raw_dag: Vec<(u8, bool)>, ops: Vec<Op>) {
    let dag = resolve_dag(&raw_dag);

    // Coalesced run (the default), with the refresh trace on.
    let db = build_db(&dag);
    db.harness().enable_cascade_trace();
    let final_model = run_stream(&dag, &db, &ops, "coalesced");

    // Exactly-once refresh: each committing transaction touches each dirty
    // (view, group) exactly once.
    let trace = db.harness().take_cascade_trace();
    let mut seen: HashMap<(u64, u32, Vec<u8>), usize> = HashMap::new();
    for (txn, view, key) in &trace {
        *seen.entry((txn.0, view.0, key.clone())).or_insert(0) += 1;
    }
    for ((txn, view, key), n) in &seen {
        assert_eq!(
            *n, 1,
            "txn {txn} refreshed view {view} group {key:?} {n} times (must be exactly once)"
        );
    }

    // Eager run: the cascade applies at op time instead of commit time.
    // Same ops, same final bytes, same invariants — only the refresh
    // counts may differ (one per delta instead of one per group).
    let eager = build_db(&dag);
    eager.harness().set_cascade_eager(true);
    let eager_model = run_stream(&dag, &eager, &ops, "eager");
    assert_eq!(final_model, eager_model, "model divergence between runs");
    for idx in 0..=dag.len() {
        let a = db.harness().dump_view(&view_name(idx)).unwrap();
        let b = eager.harness().dump_view(&view_name(idx)).unwrap();
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "coalesced and eager runs diverge on {}",
            view_name(idx)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_dags_match_naive_reference(
        raw_dag in proptest::collection::vec(arb_node(), 1..6),
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        run_differential(raw_dag, ops);
    }
}

/// Deterministic pin: a 4-deep linear chain with a fan-out sibling, one
/// transaction producing many deltas per group — the coalescing queue must
/// still refresh each (view, group) once, and a savepoint rollback inside
/// the transaction must retract its queued share.
#[test]
fn deep_chain_coalesces_to_one_refresh_per_group() {
    let dag = resolve_dag(&[(0, false), (1, false), (2, true), (0, true)]);
    let db = build_db(&dag);
    db.harness().enable_cascade_trace();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for id in 0..8 {
        db.insert(&mut txn, "items", row![id, id % 2, 10 + id]).unwrap();
    }
    // Savepoint round-trip: queued cascade deltas of the rolled-back span
    // must be retracted, not flushed.
    let sp = txn.savepoint();
    db.insert(&mut txn, "items", row![100, 3, 1000]).unwrap();
    db.rollback_to_savepoint(&mut txn, sp).unwrap();
    db.commit(&mut txn).unwrap();

    let trace = db.harness().take_cascade_trace();
    let mut per_view_groups: HashMap<u32, Vec<Vec<u8>>> = HashMap::new();
    let mut counts: HashMap<(u64, u32, Vec<u8>), usize> = HashMap::new();
    for (txn, view, key) in &trace {
        *counts.entry((txn.0, view.0, key.clone())).or_insert(0) += 1;
        per_view_groups.entry(view.0).or_default().push(key.clone());
    }
    assert!(counts.values().all(|&n| n == 1), "duplicate refresh: {counts:?}");
    // 8 inserts over 2 groups through 4 derived views: identity levels
    // refresh 2 groups each, globals refresh 1 — never 8.
    assert_eq!(per_view_groups.len(), 4, "all four derived views refreshed");
    for (view, groups) in &per_view_groups {
        assert!(
            groups.len() <= 2,
            "view {view} refreshed {} groups — coalescing failed",
            groups.len()
        );
    }
    // And the rolled-back group 3 must not appear anywhere.
    let model: HashMap<i64, (i64, i64)> =
        (0..8).map(|id| (id, (id % 2, 10 + id))).collect();
    check_all(&dag, &db, &model, "pinned");
}
