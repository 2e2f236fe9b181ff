//! Robustness under hostile conditions: tiny buffer pools (eviction storms
//! exercising the WAL rule), ghost cleanup racing live writers, derived
//! AVG reads, repeated crash/cleanup interleavings, and the health state
//! machine end-to-end (degrade → read-only service → probe-heal; fence →
//! restart-with-recovery).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::retry::RetryPolicy;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Error, Value};
use txview_engine::{
    AggSpec, Database, HealthState, IsolationLevel, MaintenanceMode, Predicate, ViewSource,
    ViewSpec,
};
use txview_storage::fault::{FaultClock, FaultDisk, FaultSchedule};
use txview_wal::FaultLogStore;

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

fn setup_with_pool(pool_pages: usize) -> Arc<Database> {
    let db = Database::new_in_memory_with(pool_pages, Duration::from_secs(10));
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

#[test]
fn tiny_buffer_pool_eviction_storm() {
    // 12 frames for a working set of dozens of pages: every operation
    // churns the pool and forces WAL-before-data flushes.
    let db = setup_with_pool(12);
    for batch in 0..10i64 {
        let mut txn = db.begin(IsolationLevel::ReadCommitted);
        for i in 0..100i64 {
            let id = batch * 100 + i;
            db.insert(&mut txn, "items", row![id, id % 7, 3i64]).unwrap();
        }
        db.commit(&mut txn).unwrap();
    }
    db.harness().verify_view("totals").unwrap();
    assert_eq!(db.harness().dump_table("items").unwrap().len(), 1000);
    // Crash + recover with the same tiny pool.
    db.crash_and_recover(0.5, 99).unwrap();
    db.harness().verify_view("totals").unwrap();
}

#[test]
fn ghost_cleanup_races_live_writers() {
    let db = setup_with_pool(1024);
    // Preload groups that will be emptied and refilled.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 0..8i64 {
        db.insert(&mut txn, "items", row![g, g, 5i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    // Writers toggle rows (creating count-0 view rows constantly).
    for t in 0..4u64 {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            let mut rng = txview_common::rng::Rng::new(t);
            while !stop.load(Ordering::Relaxed) {
                let g = rng.below(8) as i64;
                let mut txn = db.begin(IsolationLevel::ReadCommitted);
                let r = match db.delete(&mut txn, "items", &[Value::Int(g)]) {
                    Ok(()) => Ok(()),
                    Err(txview_common::Error::NotFound(_)) => {
                        match db.insert(&mut txn, "items", row![g, g, 5i64]) {
                            Ok(()) | Err(txview_common::Error::DuplicateKey(_)) => Ok(()),
                            Err(e) => Err(e),
                        }
                    }
                    Err(e) => Err(e),
                }
                .and_then(|()| db.commit(&mut txn).map(|_| ()));
                if r.is_err() && txn.is_active() {
                    let _ = db.rollback(&mut txn);
                }
            }
        }));
    }
    // A cleaner thread sweeps continuously WHILE writers run.
    {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.run_ghost_cleanup().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(600));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    db.harness().verify_view("totals").unwrap();
    // A final sweep leaves only live state behind.
    db.run_ghost_cleanup().unwrap();
    db.harness().verify_view("totals").unwrap();
}

#[test]
fn derived_avg_reads() {
    let db = setup_with_pool(256);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (id, amount) in [(1i64, 10i64), (2, 20), (3, 33)] {
        db.insert(&mut txn, "items", row![id, 0i64, amount]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let avg = db.view_avg(&mut r, "totals", &[Value::Int(0)], 0).unwrap().as_float().unwrap();
    assert!((avg - 21.0).abs() < 1e-9);
    // Missing/empty group → SQL NULL; bad aggregate index → error.
    assert_eq!(db.view_avg(&mut r, "totals", &[Value::Int(99)], 0).unwrap(), Value::Null);
    assert!(db.view_avg(&mut r, "totals", &[Value::Int(0)], 5).is_err());
    db.commit(&mut r).unwrap();
}

/// A group *emptied by deletes* differs from a missing one: the stored row
/// lingers (count 0, a ghost awaiting cleanup) — AVG over it must still be
/// SQL NULL, not a division by zero and not the stale quotient, both
/// before and after the ghost is swept.
#[test]
fn avg_of_emptied_group_is_null() {
    let db = setup_with_pool(256);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for (id, amount) in [(1i64, 10i64), (2, 20)] {
        db.insert(&mut txn, "items", row![id, 7i64, amount]).unwrap();
    }
    db.commit(&mut txn).unwrap();

    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "items", &[Value::Int(1)]).unwrap();
    db.delete(&mut txn, "items", &[Value::Int(2)]).unwrap();
    db.commit(&mut txn).unwrap();

    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(db.view_avg(&mut r, "totals", &[Value::Int(7)], 0).unwrap(), Value::Null);
    db.commit(&mut r).unwrap();

    // After ghost cleanup the row is gone entirely; still NULL.
    db.run_ghost_cleanup().unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    assert_eq!(db.view_avg(&mut r, "totals", &[Value::Int(7)], 0).unwrap(), Value::Null);
    // And a refilled group averages only its live rows.
    db.commit(&mut r).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![3i64, 7i64, 12i64]).unwrap();
    db.commit(&mut txn).unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    let avg = db.view_avg(&mut r, "totals", &[Value::Int(7)], 0).unwrap().as_float().unwrap();
    assert!((avg - 12.0).abs() < 1e-9);
    db.commit(&mut r).unwrap();
}

#[test]
fn cleanup_then_crash_then_cleanup() {
    let db = setup_with_pool(512);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 0..20i64 {
        db.insert(&mut txn, "items", row![g, g, 1i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    // Empty half the groups, clean some, crash mid-state, clean the rest.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 0..10i64 {
        db.delete(&mut txn, "items", &[Value::Int(g)]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    let first = db.run_ghost_cleanup().unwrap();
    assert!(first.removed > 0);
    db.crash_and_recover(0.7, 5).unwrap();
    db.harness().verify_view("totals").unwrap();
    // The crash dropped the queue; cleanup must be re-derivable by a scan
    // (the queue is an optimization, not the source of truth) — here we
    // simply verify correctness holds and remaining rows can be re-queued
    // by future DML without issue.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 10..20i64 {
        db.delete(&mut txn, "items", &[Value::Int(g)]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    db.run_ghost_cleanup().unwrap();
    db.harness().verify_view("totals").unwrap();
    assert!(db.harness().dump_table("items").unwrap().is_empty());
}

#[test]
fn persistent_outage_degrades_then_probe_heals() {
    // Engine over fault-injected parts; the write path dies for good at
    // event 0 and the engine must degrade to read-only service.
    let clock = FaultClock::new();
    let disk = FaultDisk::new(Arc::clone(&clock));
    let store = FaultLogStore::new(Arc::clone(&clock));
    let db = Database::with_parts(
        Arc::new(disk.clone()),
        Box::new(store.clone()),
        64,
        Duration::from_secs(2),
    )
    .unwrap();
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
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 0..4i64 {
        db.insert(&mut txn, "items", row![g, g, 5i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    db.set_io_retry_policy(RetryPolicy::no_delay(3));

    clock.arm(&FaultSchedule::persistent_at(0));
    // The commit flush exhausts its retries; nothing is acked and the
    // engine demotes itself.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![100i64, 0i64, 1i64]).unwrap();
    let err = db.commit(&mut txn).unwrap_err();
    assert!(err.is_retryable(), "exhausted write should stay retryable: {err}");
    db.rollback(&mut txn).unwrap();
    assert_eq!(db.health().state(), HealthState::DegradedReadOnly);

    // New writers are rejected up front with a classified retryable error.
    let mut w = db.begin(IsolationLevel::ReadCommitted);
    let err = db.insert(&mut w, "items", row![101i64, 0i64, 1i64]).unwrap_err();
    assert!(matches!(err, Error::Degraded { .. }), "got {err}");
    assert!(err.is_retryable());
    db.rollback(&mut w).unwrap();

    // Reads still serve, and a read-only transaction commits (no-force).
    assert_eq!(db.harness().dump_table("items").unwrap().len(), 4);
    db.harness().verify_view("totals").unwrap();
    let mut r = db.begin(IsolationLevel::ReadCommitted);
    db.commit(&mut r).unwrap();

    // A probe against the still-dead medium leaves the engine degraded.
    assert_eq!(db.probe_health(), HealthState::DegradedReadOnly);

    // Medium recovers → one probe restores full service.
    clock.heal();
    assert_eq!(db.probe_health(), HealthState::Healthy);
    db.run_txn(IsolationLevel::ReadCommitted, 2, |txn| {
        db.insert(txn, "items", row![102i64, 0i64, 9i64])
    })
    .unwrap();
    db.harness().verify_view("totals").unwrap();
    let stats = db.stats().resilience;
    assert_eq!(stats.health_counters.degradations, 1);
    assert_eq!(stats.health_counters.heals, 1);
    assert!(stats.health_counters.writes_rejected > 0);
}

#[test]
fn fence_is_sticky_until_crash_recovery() {
    let db = setup_with_pool(64);
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![1i64, 1i64, 5i64]).unwrap();
    db.commit(&mut txn).unwrap();

    db.health().fence("simulated commit-path corruption");
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let err = db.insert(&mut txn, "items", row![2i64, 1i64, 5i64]).unwrap_err();
    assert!(matches!(err, Error::Fenced { .. }), "got {err}");
    assert!(!err.is_retryable(), "fenced must be terminal, not retryable");
    // Even a read-only commit is refused: a fenced engine acks nothing.
    let err = db.commit(&mut txn).unwrap_err();
    assert!(matches!(err, Error::Fenced { .. }));
    // probe_health never heals a fence.
    assert_eq!(db.probe_health(), HealthState::Fenced);

    // Restart-with-recovery is the only exit.
    db.crash_and_recover(1.0, 7).unwrap();
    assert_eq!(db.health().state(), HealthState::Healthy);
    db.run_txn(IsolationLevel::ReadCommitted, 0, |txn| {
        db.insert(txn, "items", row![3i64, 1i64, 5i64])
    })
    .unwrap();
    db.harness().verify_view("totals").unwrap();
}

#[test]
fn run_txn_retries_degraded_errors_with_backoff_telemetry() {
    let db = setup_with_pool(64);
    db.health().degrade("test outage");
    db.set_txn_backoff(RetryPolicy {
        max_attempts: 0, // unused by run_txn (attempts come from the call)
        base_delay_micros: 10,
        max_delay_micros: 40,
        seed: 7,
    });
    let err = db
        .run_txn(IsolationLevel::ReadCommitted, 3, |txn| {
            db.insert(txn, "items", row![1i64, 1i64, 1i64])
        })
        .unwrap_err();
    assert!(matches!(err, Error::Degraded { .. }), "got {err}");
    let stats = db.stats().resilience;
    assert_eq!(stats.txn_attempts, 4); // 1 try + 3 retries
    assert_eq!(stats.txn_retries, 3);
    assert!(stats.txn_backoff_micros > 0, "backoff was configured but never slept");
    assert!(stats.health_counters.writes_rejected >= 4);

    // After healing, the same loop goes through first try.
    assert!(db.health().heal());
    let mut attempts = 0;
    db.run_txn(IsolationLevel::ReadCommitted, 3, |txn| {
        attempts += 1;
        db.insert(txn, "items", row![1i64, 1i64, 1i64])
    })
    .unwrap();
    assert_eq!(attempts, 1);
    assert_eq!(db.stats().resilience.health, HealthState::Healthy);
    db.harness().verify_view("totals").unwrap();
}

#[test]
fn many_groups_split_view_tree_under_concurrency() {
    // Enough distinct groups that the VIEW index itself splits repeatedly
    // while escrow writers run — system transactions interleaving with
    // user transactions on the same tree.
    let db = setup_with_pool(2048);
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                for i in 0..400i64 {
                    let id = t as i64 * 10_000 + i;
                    let grp = id; // one group per row: maximal view growth
                    db.run_txn(IsolationLevel::ReadCommitted, 5, |txn| {
                        db.insert(txn, "items", row![id, grp, 2i64])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    db.harness().verify_view("totals").unwrap();
    assert_eq!(db.harness().dump_view("totals").unwrap().len(), 1600);
}

#[test]
fn ghost_enqueue_dedups_and_backlog_drains_to_zero() {
    let db = setup_with_pool(256);
    // Churn one group through empty→refill→empty before any sweep: the
    // same view key is ghosted twice, but the backlog must count it once.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![1i64, 7i64, 5i64]).unwrap();
    db.commit(&mut txn).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.delete(&mut txn, "items", &[Value::Int(1)]).unwrap();
    db.commit(&mut txn).unwrap();
    // One base-row ghost (pk 1) + one view-group ghost (group 7).
    let b1 = db.harness().ghost_backlog();
    assert_eq!(b1, 2, "base row + emptied group queued");
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![2i64, 7i64, 5i64]).unwrap();
    db.delete(&mut txn, "items", &[Value::Int(2)]).unwrap();
    db.commit(&mut txn).unwrap();
    // The pk-2 base ghost is a new key; the group-7 view ghost is a
    // duplicate and must NOT be queued again (without dedup: b1 + 2).
    assert_eq!(db.harness().ghost_backlog(), b1 + 1, "re-ghosting the same view key dedups");

    // Heavier churn across many groups, then a sweep: the backlog gauge
    // (both the direct accessor and the metrics snapshot) returns to 0.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 100..140i64 {
        db.insert(&mut txn, "items", row![g, g, 1i64]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for g in 100..140i64 {
        db.delete(&mut txn, "items", &[Value::Int(g)]).unwrap();
    }
    db.commit(&mut txn).unwrap();
    assert!(db.harness().ghost_backlog() >= 80, "40 base rows + 40 emptied groups");
    let report = db.run_ghost_cleanup().unwrap();
    assert!(report.removed >= 40);
    assert_eq!(db.harness().ghost_backlog(), 0, "sweep drains the backlog");
    let snap = db.metrics_snapshot();
    assert_eq!(snap.gauge_value("engine.ghost_backlog"), Some(0));
    db.harness().verify_view("totals").unwrap();
    // After a drain the key may legitimately be queued again.
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    db.insert(&mut txn, "items", row![3i64, 7i64, 5i64]).unwrap();
    db.delete(&mut txn, "items", &[Value::Int(3)]).unwrap();
    db.commit(&mut txn).unwrap();
    assert_eq!(db.harness().ghost_backlog(), b1, "post-drain re-ghosting queues fresh work");
}

#[test]
fn concurrent_backoff_txns_do_not_serialize() {
    use std::sync::{Condvar, Mutex};
    use std::time::Instant;
    // Each transaction copies the backoff policy at entry, so one thread
    // sleeping its backoff must not hold anything another thread's retry
    // loop needs. Each thread's retry waits until the other thread has
    // reached its retry too: if backoffs serialized, the first retry would
    // wait forever for the second. Host speed only moves how long the
    // rendezvous takes, never whether it happens.
    let db = setup_with_pool(256);
    let policy = RetryPolicy {
        max_attempts: 2,
        base_delay_micros: 200_000,
        max_delay_micros: 200_000,
        seed: 1,
    };
    let d = Duration::from_micros(policy.delay_micros(1));
    assert!(d >= Duration::from_millis(100), "jitter floor is half the cap");
    db.set_txn_backoff(policy);
    let retries = Arc::new((Mutex::new(0usize), Condvar::new()));
    let handles: Vec<_> = (0..2)
        .map(|t| {
            let db = Arc::clone(&db);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                let (mut attempts, mut failed_at) = (0, None);
                db.run_txn(IsolationLevel::ReadCommitted, 3, |txn| {
                    attempts += 1;
                    let Some(failed) = failed_at else {
                        failed_at = Some(Instant::now());
                        return Err(Error::SerializationConflict("induced".into()));
                    };
                    let gap = failed.elapsed();
                    assert!(gap >= d, "thread {t} retried after {gap:?}, before its backoff {d:?}");
                    let (count, cv) = &*retries;
                    let mut n = count.lock().unwrap();
                    *n += 1;
                    cv.notify_all();
                    let (n, wait) = cv
                        .wait_timeout_while(n, Duration::from_secs(10), |n| *n < 2)
                        .unwrap();
                    assert!(!wait.timed_out(), "thread {t}: the other retry never came ({} of 2)", *n);
                    drop(n);
                    db.insert(txn, "items", row![t as i64, t as i64, 1i64])
                })
                .unwrap();
                attempts
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 2, "exactly one induced retry each");
    }
    db.harness().verify_view("totals").unwrap();
}
