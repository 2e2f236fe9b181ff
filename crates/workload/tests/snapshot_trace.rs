//! Forensic trace for the residual snapshot tear: catch one anomalous scan
//! and dump the snapshot LSN plus each branch's version chain.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use txview_common::Value;
use txview_engine::IsolationLevel;
use txview_workload::bank::{Bank, BankConfig, VIEW};

#[test]
fn trace_snapshot_tear() {
    let bank = Bank::setup(BankConfig::default()).unwrap();
    let branches = bank.cfg.branches;
    let total = bank.total_money();
    let stop = Arc::new(AtomicBool::new(false));
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
                let r = op(&db, &mut txn, &mut rng, seq)
                    .and_then(|()| db.commit(&mut txn).map(|_| ()));
                if let Err(e) = r {
                    eprintln!("writer error: {e} (txn active: {})", txn.is_active());
                    if txn.is_active() {
                        let _ = db.rollback(&mut txn);
                    }
                }
                seq += 1;
            }
        }));
    }

    let db = Arc::clone(&bank.db);
    let mut tear: Option<String> = None;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(3);
    while std::time::Instant::now() < deadline {
        let mut txn = db.begin(IsolationLevel::Snapshot);
        let s = txn.snapshot_lsn;
        let rows = db.view_scan(&mut txn, VIEW, None, None).unwrap();
        let sum: i64 = rows.iter().map(|r| r.get(2).as_int().unwrap()).sum();
        if sum != total {
            // Freeze the world, then re-read at the SAME snapshot: if the
            // re-read differs from what we saw, the original read raced;
            // if it matches, the chain content itself is wrong for s.
            stop.store(true, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(300));
            let rows2 = db.view_scan(&mut txn, VIEW, None, None).unwrap();
            let sum2: i64 = rows2.iter().map(|r| r.get(2).as_int().unwrap()).sum();
            let mut msg = format!(
                "TEAR: s={} sum={} total={} | re-read sum={} ({})\n",
                s.0,
                sum,
                total,
                sum2,
                if sum2 == total { "TRANSIENT READ RACE" } else { "WRONG CHAIN CONTENT" }
            );
            for (a, b) in rows.iter().zip(&rows2) {
                if a != b {
                    msg.push_str(&format!("row changed between reads: {a:?} -> {b:?}\n"));
                }
            }
            // Find the smallest s' >= s at which the sum becomes consistent
            // again, then show each branch's deltas around that boundary.
            let mut s_fix = None;
            for ds in 1..5000u64 {
                txn.snapshot_lsn = txview_common::Lsn(s.0 + ds);
                let rows3 = db.view_scan(&mut txn, VIEW, None, None).unwrap();
                let sum3: i64 = rows3.iter().map(|r| r.get(2).as_int().unwrap()).sum();
                if sum3 == total {
                    s_fix = Some(s.0 + ds);
                    break;
                }
            }
            msg.push_str(&format!("first consistent s' = {s_fix:?}\n"));
            let physical: i64 = db
                .harness().dump_view(VIEW)
                .unwrap()
                .iter()
                .map(|r| r.get(2).as_int().unwrap())
                .sum();
            msg.push_str(&format!("physical sum = {physical}\n"));
            // Cross-check each branch's chain against the WAL: group the
            // logged escrow forward-pairs by owning txn, attribute them to
            // the txn's commit LSN, and diff with the published chain.
            use std::collections::HashMap as Map;
            use txview_wal::record::{RecordBody, UndoOp, ValueDelta};
            db.log().flush_all().unwrap();
            let records = db.log().read_durable_from(0).unwrap();
            // txn -> commit lsn
            let mut commit_of: Map<u64, u64> = Map::new();
            for r in &records {
                if matches!(r.body, RecordBody::Commit) {
                    commit_of.insert(r.txn.0, r.lsn.0);
                }
            }
            for b in 0..branches {
                let key = txview_common::Key::from_values(&[Value::Int(b)]);
                // logged sum-delta per commit lsn (escrow Update records only)
                let mut logged: Map<u64, i64> = Map::new();
                for r in &records {
                    if let RecordBody::Update { undo: UndoOp::Escrow { key: k, deltas, .. }, .. } = &r.body {
                        if k == key.as_bytes() {
                            if let Some(&cl) = commit_of.get(&r.txn.0) {
                                for (pos, d) in deltas {
                                    if *pos == 1 {
                                        if let ValueDelta::Int(x) = d {
                                            *logged.entry(cl).or_insert(0) += x;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
                let mut published: Map<u64, i64> = Map::new();
                for (l, full, p) in db.harness().debug_chain(VIEW, &[Value::Int(b)]).unwrap() {
                    if full { continue; }
                    if let Some(pairs) = p {
                        for (pos, d) in pairs {
                            if pos == 1 {
                                if let ValueDelta::Int(x) = d {
                                    *published.entry(l).or_insert(0) += x;
                                }
                            }
                        }
                    }
                }
                for (l, v) in &published {
                    let lv = logged.get(l).copied().unwrap_or(0);
                    if lv != *v {
                        msg.push_str(&format!(
                            "branch {b}: lsn {l}: published {v} vs logged {lv}\n"
                        ));
                    }
                }
                // Entries at or below the base LSN were folded into the
                // base; anything newer MUST appear as a published delta.
                let base_lsn = db
                    .harness().debug_chain(VIEW, &[Value::Int(b)])
                    .unwrap()
                    .iter()
                    .filter(|(_, full, _)| *full)
                    .map(|(l, _, _)| *l)
                    .max()
                    .unwrap_or(0);
                for (l, v) in &logged {
                    if *l > base_lsn && !published.contains_key(l) && *v != 0 {
                        msg.push_str(&format!(
                            "branch {b}: lsn {l}: logged {v} MISSING from chain (base_lsn {base_lsn})\n"
                        ));
                    }
                }
            }
            if let Some(sf) = s_fix {
                for b in 0..branches {
                    let chain = db.harness().debug_chain(VIEW, &[Value::Int(b)]).unwrap();
                    for (l, full, p) in &chain {
                        if *l >= s.0.saturating_sub(60) && *l <= sf + 60 {
                            msg.push_str(&format!("  branch {b}: lsn {l} full={full} {p:?}\n"));
                        }
                    }
                }
            }
            for b in 0..branches {
                let chain = db.harness().debug_chain(VIEW, &[Value::Int(b)]).unwrap();
                let tail: Vec<String> = chain
                    .iter()
                    .rev()
                    .take(6)
                    .map(|(l, full, p)| format!("({l},{},{:?})", if *full { "F" } else { "D" }, p))
                    .collect();
                msg.push_str(&format!("branch {b}: chain tail {tail:?}\n"));
                if let Some(r) = rows.iter().find(|r| r.get(0).as_int().unwrap() == b) {
                    msg.push_str(&format!("branch {b}: read row {r:?}\n"));
                }
            }
            tear = Some(msg);
            let _ = db.commit(&mut txn);
            break;
        }
        db.commit(&mut txn).unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    if let Some(msg) = tear {
        panic!("{msg}");
    }
}
