//! Observability contract for the group-commit pipeline: batch-size and
//! park-to-wake metrics flow into the database snapshot, and the torture
//! harness's metrics-determinism check holds with the pipeline enabled —
//! identically-seeded runs on the event-tick clock must produce
//! byte-identical snapshots, pipeline counters included.

use std::time::Duration;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::row;
use txview_engine::torture::{run_metrics_check, TortureConfig};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

fn items_schema() -> Schema {
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

fn pipelined_db() -> std::sync::Arc<Database> {
    let db = Database::new_in_memory_with(64, Duration::from_secs(10));
    db.enable_commit_pipeline();
    let t = db.create_table("items", items_schema()).unwrap();
    db.create_indexed_view(ViewSpec {
        name: "totals".into(),
        source: ViewSource::Single { table: t, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .unwrap();
    db
}

/// Single-threaded pipelined commits: every committer self-leads, so the
/// batch-size histogram records one batch of one per commit and nobody
/// ever parks behind a leader.
#[test]
fn pipeline_batch_and_park_metrics_single_threaded() {
    let db = pipelined_db();
    let commits = 9i64;
    for i in 0..commits {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        db.insert(&mut txn, "items", row![i, i % 3, 5i64]).unwrap();
        db.commit(&mut txn).unwrap();
    }
    let s = db.metrics_snapshot();
    assert_eq!(s.counter_value("txn.commits"), Some(commits as u64));

    let batches = s.hist_value("txn.pipeline.batch_commits").expect("batch hist missing");
    assert_eq!(batches.count(), commits as u64, "one round per commit");
    assert_eq!(batches.sum, commits as u64, "every batch resolved exactly one commit");
    assert_eq!(
        s.counter_value("txn.pipeline.leader_syncs"),
        Some(commits as u64),
        "every committer self-led"
    );
    assert_eq!(s.counter_value("txn.pipeline.follower_waits"), Some(0));
    assert_eq!(s.counter_value("txn.pipeline.fast_acks"), Some(0), "no commit was pre-flushed");
    let park = s.hist_value("txn.pipeline.park_to_wake_us").expect("park hist missing");
    assert_eq!(park.count(), 0, "nobody parked single-threaded");
}

/// The torture metrics-determinism contract (`run_torture --metrics`)
/// must hold with the pipeline enabled: structurally valid snapshots,
/// identical across identically-seeded runs, with the pipeline's own
/// instruments live.
#[test]
fn pipelined_torture_metrics_deterministic() {
    let cfg = TortureConfig { txns: 18, pipeline: true, ..Default::default() };
    let r = run_metrics_check(&cfg).unwrap();
    assert!(r.violations.is_empty(), "{:?}", r.violations);
    let batches = r
        .snapshot
        .hist_value("txn.pipeline.batch_commits")
        .expect("pipeline batch hist missing from torture snapshot");
    assert!(batches.count() > 0, "no pipeline rounds recorded");
    let commits = r.snapshot.counter_value("txn.commits").unwrap_or(0);
    assert!(
        batches.sum <= commits,
        "more batch resolutions ({}) than commits ({commits})",
        batches.sum
    );
}
