//! Property-based model checking: random DML programs (with rollbacks,
//! savepoints, filters, and crashes) against a pure in-memory model. After
//! every program, the table contents, the view contents, and the engine's
//! own `verify_view` must all agree with the model.

use proptest::prelude::*;
use std::collections::HashMap;
use txview_repro::prelude::*;
use txview_repro::row;

/// The reference model: pk → (group, amount).
type Model = HashMap<i64, (i64, i64)>;

#[derive(Clone, Debug)]
enum Op {
    Insert { id: i64, grp: i64, amount: i64 },
    Update { id: i64, grp: i64, amount: i64 },
    Delete { id: i64 },
    Commit,
    Rollback,
    SavepointRoundtrip { id: i64, grp: i64, amount: i64 },
    Crash { steal_milli: u16, seed: u64 },
    Cleanup,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0i64..40, 0i64..4, 1i64..100).prop_map(|(id, grp, amount)| Op::Insert { id, grp, amount }),
        3 => (0i64..40, 0i64..4, 1i64..100).prop_map(|(id, grp, amount)| Op::Update { id, grp, amount }),
        3 => (0i64..40).prop_map(|id| Op::Delete { id }),
        3 => Just(Op::Commit),
        1 => Just(Op::Rollback),
        1 => (100i64..140, 0i64..4, 1i64..100)
            .prop_map(|(id, grp, amount)| Op::SavepointRoundtrip { id, grp, amount }),
        1 => (0u16..1000, any::<u64>()).prop_map(|(steal_milli, seed)| Op::Crash { steal_milli, seed }),
        1 => Just(Op::Cleanup),
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

fn setup(mode: MaintenanceMode, filter: Predicate) -> std::sync::Arc<Database> {
    let db = Database::new_in_memory(512);
    let t = db.create_table("items", schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "v".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter,
        maintenance: mode,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    db
}

/// Expected view contents from the model (only rows passing `min_amount`).
fn expected_view(model: &Model, min_amount: i64) -> HashMap<i64, (i64, i64)> {
    let mut out: HashMap<i64, (i64, i64)> = HashMap::new();
    for (_, (grp, amount)) in model.iter() {
        if *amount >= min_amount {
            let e = out.entry(*grp).or_insert((0, 0));
            e.0 += 1;
            e.1 += amount;
        }
    }
    out
}

fn check_against_model(db: &Database, model: &Model, min_amount: i64) {
    // Engine's own invariant first.
    db.harness().verify_view("v").unwrap();
    // Table contents.
    let rows = db.harness().dump_table("items").unwrap();
    assert_eq!(rows.len(), model.len(), "table cardinality");
    for r in &rows {
        let id = r.get(0).as_int().unwrap();
        let (grp, amount) = model.get(&id).expect("row must exist in model");
        assert_eq!(r.get(1).as_int().unwrap(), *grp);
        assert_eq!(r.get(2).as_int().unwrap(), *amount);
    }
    // View contents.
    let expected = expected_view(model, min_amount);
    let view_rows = db.harness().dump_view("v").unwrap();
    assert_eq!(view_rows.len(), expected.len(), "view cardinality");
    for r in &view_rows {
        let grp = r.get(0).as_int().unwrap();
        let (count, sum) = expected.get(&grp).expect("group must exist in model");
        assert_eq!(r.get(1).as_int().unwrap(), *count, "count of group {grp}");
        assert_eq!(r.get(2).as_int().unwrap(), *sum, "sum of group {grp}");
    }
}

fn run_program(mode: MaintenanceMode, min_amount: i64, ops: Vec<Op>) {
    let filter = if min_amount > 0 {
        Predicate::Cmp { col: 2, op: CmpOp::Ge, value: Value::Int(min_amount) }
    } else {
        Predicate::True
    };
    let db = setup(mode, filter);
    let mut committed: Model = HashMap::new();
    let mut pending: Model = committed.clone();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);

    for op in ops {
        match op {
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
                check_against_model(&db, &committed, min_amount);
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
            Op::Rollback => {
                db.rollback(&mut txn).unwrap();
                pending = committed.clone();
                check_against_model(&db, &committed, min_amount);
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
            Op::SavepointRoundtrip { id, grp, amount } => {
                // Do work after a savepoint, then roll it back: must be a
                // no-op overall.
                let sp = txn.savepoint();
                if !pending.contains_key(&id) {
                    db.insert(&mut txn, "items", row![id, grp, amount]).unwrap();
                }
                db.rollback_to_savepoint(&mut txn, sp).unwrap();
            }
            Op::Crash { steal_milli, seed } => {
                // Whatever the open transaction did must vanish.
                std::mem::forget(txn);
                db.log().flush_all().unwrap();
                db.crash_and_recover(steal_milli as f64 / 1000.0, seed).unwrap();
                pending = committed.clone();
                check_against_model(&db, &committed, min_amount);
                txn = db.begin(IsolationLevel::ReadCommitted);
            }
            Op::Cleanup => {
                // Ghost cleanup must never change logical contents. Run it
                // between transactions (the open one has made no changes
                // that cleanup could observe under its instant locks).
                let _ = db.run_ghost_cleanup().unwrap();
            }
        }
    }
    db.commit(&mut txn).unwrap();
    check_against_model(&db, &pending, min_amount);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn escrow_mode_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        run_program(MaintenanceMode::Escrow, 0, ops);
    }

    #[test]
    fn xlock_mode_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        run_program(MaintenanceMode::XLock, 0, ops);
    }

    #[test]
    fn filtered_escrow_matches_model(ops in proptest::collection::vec(arb_op(), 1..60)) {
        run_program(MaintenanceMode::Escrow, 50, ops);
    }
}

// ---- concurrent two-transaction programs through the virtual scheduler ----
//
// Random pairs of transaction scripts run under a *scheduled* interleaving
// (a random decision list replayed through the deterministic scheduler),
// judged by the serializability oracle instead of a sequential model.
// Failures print the scripts + choice list; append them to
// `model_check.proptest-regressions` in the `interleave:` format below and
// `concurrent_regressions_replay` will pin them forever.

use txview_repro::engine::interleave::{self as il, End, SOp, Scenario, Script};

fn arb_cop() -> impl Strategy<Value = SOp> {
    prop_oneof![
        3 => (0i64..6, 0i64..3, 1i64..50)
            .prop_map(|(id, grp, amount)| SOp::Insert { id, grp, amount }),
        2 => (0i64..6, 0i64..3, 1i64..50)
            .prop_map(|(id, grp, amount)| SOp::Update { id, grp, amount }),
        2 => (0i64..6).prop_map(|id| SOp::Delete { id }),
        2 => (0i64..3).prop_map(|grp| SOp::ReadGroup { grp }),
        1 => (0i64..6).prop_map(|id| SOp::ReadRow { id }),
    ]
}

fn arb_cscript() -> impl Strategy<Value = Script> {
    (
        0usize..3,
        proptest::collection::vec(arb_cop(), 1..5),
        0usize..4,
    )
        .prop_map(|(iso, mut ops, end)| {
            let isolation = match iso {
                0 => IsolationLevel::ReadCommitted,
                1 => IsolationLevel::Serializable,
                _ => IsolationLevel::Snapshot,
            };
            if isolation == IsolationLevel::Snapshot {
                // Snapshot transactions are read-only in these programs.
                for op in ops.iter_mut() {
                    if !matches!(op, SOp::ReadGroup { .. } | SOp::ReadRow { .. }) {
                        *op = SOp::ReadGroup { grp: 0 };
                    }
                }
            }
            // Commit three times out of four.
            let end = if end == 0 { End::Rollback } else { End::Commit };
            Script { isolation, ops, end }
        })
}

fn concurrent_scenario(mode: MaintenanceMode, s1: Script, s2: Script) -> Scenario {
    Scenario {
        name: format!("model_check_concurrent/{mode:?}"),
        mode,
        initial: vec![(0, 0, 10), (3, 1, 20)],
        scripts: vec![s1, s2],
        groups: vec![0, 1, 2],
        pipeline: false,
        minmax: false,
        chain_depth: 0,
    }
}

fn run_concurrent(mode: MaintenanceMode, s1: Script, s2: Script, choices: Vec<usize>) {
    let sc = concurrent_scenario(mode, s1, s2);
    let ep = il::run_episode(&sc, Box::new(il::ReplayChooser::new(choices.clone())));
    let violations = il::check_episode(&sc, &ep);
    assert!(
        violations.is_empty(),
        "oracle violations for scripts {:?} under choices {choices:?} \
         (executed decisions {:?}):\n{}",
        sc.scripts,
        ep.decisions,
        violations.join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_escrow_passes_oracle(
        s1 in arb_cscript(),
        s2 in arb_cscript(),
        choices in proptest::collection::vec(0usize..2, 0..24),
    ) {
        run_concurrent(MaintenanceMode::Escrow, s1, s2, choices);
    }

    #[test]
    fn concurrent_xlock_passes_oracle(
        s1 in arb_cscript(),
        s2 in arb_cscript(),
        choices in proptest::collection::vec(0usize..2, 0..24),
    ) {
        run_concurrent(MaintenanceMode::XLock, s1, s2, choices);
    }
}

/// Parse one script in the regression format `ISO;op,op,...;END` where an
/// op is `I:id:grp:amt`, `U:id:grp:amt`, `D:id`, `R:grp`, or `B:id`,
/// ISO is `RC|SR|SN`, END is `C|A`.
fn parse_regression_script(s: &str) -> Script {
    let parts: Vec<&str> = s.split(';').collect();
    assert_eq!(parts.len(), 3, "bad regression script {s:?}");
    let isolation = match parts[0] {
        "RC" => IsolationLevel::ReadCommitted,
        "SR" => IsolationLevel::Serializable,
        "SN" => IsolationLevel::Snapshot,
        other => panic!("bad isolation {other:?}"),
    };
    let num = |f: &str| f.parse::<i64>().expect("regression op field");
    let ops = parts[1]
        .split(',')
        .filter(|o| !o.is_empty())
        .map(|o| {
            let f: Vec<&str> = o.split(':').collect();
            match f[0] {
                "I" => SOp::Insert { id: num(f[1]), grp: num(f[2]), amount: num(f[3]) },
                "U" => SOp::Update { id: num(f[1]), grp: num(f[2]), amount: num(f[3]) },
                "D" => SOp::Delete { id: num(f[1]) },
                "R" => SOp::ReadGroup { grp: num(f[1]) },
                "B" => SOp::ReadRow { id: num(f[1]) },
                other => panic!("bad op tag {other:?}"),
            }
        })
        .collect();
    let end = match parts[2] {
        "C" => End::Commit,
        "A" => End::Rollback,
        other => panic!("bad end {other:?}"),
    };
    Script { isolation, ops, end }
}

/// Replay every `interleave:` regression recorded in
/// `model_check.proptest-regressions`. The shim never shrinks or persists
/// cases itself, so failing concurrent programs are minimized by hand and
/// committed there in the compact format parsed above.
#[test]
fn concurrent_regressions_replay() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/model_check.proptest-regressions");
    let text = std::fs::read_to_string(path).expect("regressions file");
    let mut replayed = 0usize;
    for line in text.lines() {
        let Some(spec) = line.strip_prefix("cc interleave: ") else { continue };
        let mut mode = None;
        let mut scripts = Vec::new();
        let mut choices: Vec<usize> = Vec::new();
        for field in spec.split_whitespace() {
            let (key, val) = field.split_once('=').expect("key=value regression field");
            match key {
                "mode" => {
                    mode = Some(match val {
                        "escrow" => MaintenanceMode::Escrow,
                        "xlock" => MaintenanceMode::XLock,
                        other => panic!("bad mode {other:?}"),
                    })
                }
                "t1" | "t2" => scripts.push(parse_regression_script(val)),
                "choices" => {
                    choices = val
                        .split(',')
                        .filter(|c| !c.is_empty() && *c != "-")
                        .map(|c| c.parse().expect("choice"))
                        .collect()
                }
                other => panic!("bad regression key {other:?}"),
            }
        }
        assert_eq!(scripts.len(), 2, "regression needs t1 and t2: {line:?}");
        let s2 = scripts.pop().unwrap();
        let s1 = scripts.pop().unwrap();
        run_concurrent(mode.expect("mode"), s1, s2, choices);
        replayed += 1;
    }
    assert!(replayed > 0, "no interleave regressions found in {path}");
}
