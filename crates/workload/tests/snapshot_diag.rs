//! Diagnostic for snapshot-consistency: run transfers + snapshot audits and
//! report the distribution of anomaly magnitudes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use txview_engine::IsolationLevel;
use txview_workload::bank::{Bank, BankConfig, VIEW};

#[test]
fn snapshot_sum_is_always_conserved() {
    let bank = Bank::setup(BankConfig::default()).unwrap();
    let n_accounts = bank.cfg.accounts;
    let total = bank.total_money();
    let stop = Arc::new(AtomicBool::new(false));
    let anomalies: Arc<Mutex<Vec<i64>>> = Arc::new(Mutex::new(Vec::new()));

    let mut handles = Vec::new();
    for t in 0..8u64 {
        let db = Arc::clone(&bank.db);
        let stop = Arc::clone(&stop);
        let op = bank.transfer_op(2);
        handles.push(std::thread::spawn(move || {
            let mut rng = txview_common::rng::Rng::new(t + 1);
            let mut seq = 0;
            while !stop.load(Ordering::Relaxed) {
                let mut txn = db.begin(IsolationLevel::ReadCommitted);
                let r = op(&db, &mut txn, &mut rng, seq).and_then(|()| db.commit(&mut txn).map(|_| ()));
                if r.is_err() && txn.is_active() {
                    let _ = db.rollback(&mut txn);
                }
                seq += 1;
            }
        }));
    }
    for _ in 0..2 {
        let db = Arc::clone(&bank.db);
        let stop = Arc::clone(&stop);
        let anomalies = Arc::clone(&anomalies);
        handles.push(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let mut txn = db.begin(IsolationLevel::Snapshot);
                let rows = db.view_scan(&mut txn, VIEW, None, None).unwrap();
                let sum: i64 = rows.iter().map(|r| r.get(2).as_int().unwrap()).sum();
                let count: i64 = rows.iter().map(|r| r.get(1).as_int().unwrap()).sum();
                if sum != total || count != n_accounts {
                    anomalies.lock().unwrap().push(sum - total);
                }
                let _ = db.commit(&mut txn);
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(800));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Ground truth: after quiescing, a fresh snapshot must agree exactly
    // with the physical (committed) view contents. A divergence here means
    // a commit published wrong/missing deltas (permanent corruption); a
    // divergence only during the run means a transient read race.
    {
        let db = &bank.db;
        let physical = db.harness().dump_view(VIEW).unwrap();
        let mut snap = db.begin(IsolationLevel::Snapshot);
        let reconstructed = db.view_scan(&mut snap, VIEW, None, None).unwrap();
        db.commit(&mut snap).unwrap();
        assert_eq!(physical.len(), reconstructed.len(), "row cardinality");
        for (p, r) in physical.iter().zip(&reconstructed) {
            assert_eq!(p, r, "final chain reconstruction == physical");
        }
    }
    let a = anomalies.lock().unwrap();
    let mut histogram = std::collections::HashMap::new();
    for d in a.iter() {
        *histogram.entry(*d).or_insert(0u32) += 1;
    }
    assert!(
        a.is_empty(),
        "{} anomalies, magnitude histogram: {histogram:?}",
        a.len()
    );
}
