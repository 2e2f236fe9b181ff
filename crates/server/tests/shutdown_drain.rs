//! Shutdown torture for the service layer.
//!
//! * **Graceful drain** — `Server::shutdown` under live autocommit load:
//!   every acked deposit is durably applied, at most one unacked deposit
//!   per session slips through (its response was in flight when the
//!   connection closed), and the commit pipeline is fully drained before
//!   the process lets go of the WAL.
//! * **Abortive kill** — a WAL crash probe at
//!   `wal.pipeline.post_append_pre_wake` kills the server mid-batch and
//!   freezes the fault store, simulating a crash between a group-commit
//!   append and its waiter wakeup. After ARIES recovery over the frozen
//!   image, **no account is missing a deposit the server acked**: the
//!   kill point suppresses acks before the crash can retract durability.
//!
//! Each client deposits +1 into a private account laid out one-per-branch,
//! so the view row `[branch, COUNT, SUM]` for branch *i* is an exact
//! per-client ledger — the recovery oracle is `SUM(i) ≥ acks(i)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::schema::{Column, Schema};
use txview_common::value::ValueType;
use txview_common::{row, Value};
use txview_engine::catalog::{AggSpec, MaintenanceMode, Predicate, ViewSource, ViewSpec};
use txview_engine::{Database, FaultParts, IsolationLevel};
use txview_server::{Client, Server, ServerConfig};
use txview_storage::fault::{FaultPoint, FaultSchedule};
use txview_wal::LogStore;
use txview_workload::bank::{Bank, BankConfig, VIEW};

const KILL_PROBE: &str = "wal.pipeline.post_append_pre_wake";

/// Read one branch's SUM on a fresh transaction.
fn branch_sum(db: &Database, view: &str, branch: i64) -> i64 {
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    let sum = db
        .view_lookup(&mut txn, view, &[Value::Int(branch)])
        .expect("view lookup")
        .map(|r| r.get(2).as_int().expect("int SUM"))
        .unwrap_or(0);
    db.commit(&mut txn).expect("read-only commit");
    sum
}

#[test]
fn graceful_drain_loses_no_acked_commit() {
    const CLIENTS: usize = 4;
    // accounts == branches ⇒ every account is its own branch/view row.
    let bank = Bank::setup(BankConfig {
        accounts: CLIENTS as i64,
        branches: CLIENTS as i64,
        pipeline: true,
        sync_latency_us: 100, // widen batch windows so the drain has work
        ..Default::default()
    })
    .expect("bank setup");
    let server =
        Server::start(bank.db.clone(), "127.0.0.1:0", ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let mut attempts = 0u64;
            let mut acks = 0u64;
            // Run until the drain severs us — every client is guaranteed to
            // have at least one attempt the server never answered.
            loop {
                attempts += 1;
                match c.deposit(t as i64, 1) {
                    Ok(Some(_lsn)) => acks += 1,
                    Ok(None) => panic!("autocommit deposit buffered"),
                    Err(_) => break,
                }
            }
            (attempts, acks)
        }));
    }

    // Drain while the load is still running.
    std::thread::sleep(Duration::from_millis(250));
    let stats = server.shutdown().expect("graceful shutdown");

    let per_client: Vec<(u64, u64)> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();

    let initial = bank.cfg.initial_balance;
    let mut total_attempts = 0;
    let mut total_acks = 0;
    for (t, &(attempts, acks)) in per_client.iter().enumerate() {
        total_attempts += attempts;
        total_acks += acks;
        let applied = (branch_sum(&bank.db, VIEW, t as i64) - initial) as u64;
        // Every ack is durable; at most the single in-flight request whose
        // response the close discarded may be applied-but-unacked.
        assert!(
            applied >= acks,
            "client {t}: acked {acks} deposits but only {applied} survived the drain"
        );
        assert!(
            applied <= acks + 1,
            "client {t}: {applied} applied vs {acks} acked — more than one \
             unacked in-flight request slipped through"
        );
    }
    assert!(total_acks > 0, "no deposit was ever acked — test is vacuous");
    assert!(
        total_attempts > total_acks,
        "every attempt was acked — the drain never interrupted the load"
    );
    assert_eq!(stats.suppressed_responses, 0, "graceful drain must not suppress responses");
    bank.verify().expect("views consistent after drain");
}

/// One abortive-kill episode: serve a fault-injected database, kill at the
/// `kill_at`-th pipeline batch append, freeze the WAL image, recover, and
/// check the per-account ack ledger. Returns (attempts, acks, probe hits).
fn kill_episode(kill_at: u64) -> (u64, u64, u64) {
    const CLIENTS: usize = 4;
    const MAX_ATTEMPTS: u64 = 20_000;
    const POOL_PAGES: usize = 256;

    let parts = FaultParts::new();
    parts.store.set_sync_latency(40, 10, 7); // widen the append→wake window
    let db = parts.open(POOL_PAGES).expect("open");
    db.enable_commit_pipeline();

    let accounts = db
        .create_table(
            "accounts",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("branch", ValueType::Int),
                    Column::new("balance", ValueType::Int),
                ],
                vec![0],
            )
            .expect("schema"),
        )
        .expect("create table");
    db.create_indexed_view(ViewSpec {
        name: VIEW.into(),
        source: ViewSource::Single { table: accounts, group_by: vec![1] },
        aggs: vec![AggSpec::SumInt { col: 2 }],
        filter: Predicate::True,
        maintenance: MaintenanceMode::Escrow,
        deferred: false,
        eager_group_delete: false,
    })
    .expect("create view");
    let mut txn = db.begin(IsolationLevel::ReadCommitted);
    for i in 0..CLIENTS as i64 {
        // branch == id: one view row per client account, balance starts 0.
        db.insert(&mut txn, "accounts", row![i, i, 0i64]).expect("insert");
    }
    db.commit(&mut txn).expect("load commit");
    db.checkpoint().expect("checkpoint");

    let server =
        Server::start(Arc::clone(&db), "127.0.0.1:0", ServerConfig::default()).expect("start");
    let addr = server.local_addr();

    // The crash probe: at the kill_at-th batch append, stop all acks FIRST
    // (kill_now), then doom the fault clock so the store freezes at its
    // next operation. Ordering matters: once kill_now returns, no response
    // leaves the process, so every ack that escaped corresponds to a
    // commit_wait that completed — durable in any later freeze.
    let hits = Arc::new(AtomicU64::new(0));
    {
        let hits = Arc::clone(&hits);
        let killer = server.killer();
        let clock = Arc::clone(&parts.clock);
        db.log().set_crash_probe(Arc::new(move |p| {
            if p == KILL_PROBE {
                let n = hits.fetch_add(1, Ordering::AcqRel) + 1;
                if n == kill_at {
                    killer.kill_now();
                    clock.arm(&FaultSchedule::crash_at(0));
                }
            }
            clock.tick(FaultPoint::Probe(p));
        }));
    }

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            // Short timeout so a killed server turns into an error, not a hang.
            let Ok(mut c) = Client::connect_with_timeout(addr, Duration::from_secs(2)) else {
                return (0u64, 0u64); // killed before this client connected
            };
            let mut attempts = 0u64;
            let mut acks = 0u64;
            while attempts < MAX_ATTEMPTS {
                attempts += 1;
                match c.deposit(t as i64, 1) {
                    Ok(Some(_lsn)) => acks += 1,
                    Ok(None) => panic!("autocommit deposit buffered"),
                    Err(_) => break, // kill severed the socket
                }
            }
            (attempts, acks)
        }));
    }
    let per_client: Vec<(u64, u64)> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    server.join_after_kill();
    let probe_hits = hits.load(Ordering::Acquire);
    assert!(probe_hits >= kill_at, "kill probe never fired ({probe_hits} < {kill_at})");

    // Force one more store op so the doomed clock's freeze is captured even
    // if the pipeline went idle the instant the probe fired.
    let _ = LogStore::sync(&parts.store);

    // Crash: discard live state, keep the frozen image, recover over it.
    let catalog = db.export_catalog();
    drop(db);
    assert!(parts.restore_durable(), "fault store never froze a crash image");
    let (db2, _report) = parts.reboot(&catalog, POOL_PAGES).expect("recovery");
    db2.harness().verify_view(VIEW).expect("view consistent after recovery");

    let mut total_attempts = 0;
    let mut total_acks = 0;
    for (t, &(attempts, acks)) in per_client.iter().enumerate() {
        total_attempts += attempts;
        total_acks += acks;
        let recovered = branch_sum(&db2, VIEW, t as i64) as u64;
        // The contract under test: an acked commit is never lost. The
        // converse (durable but unacked — suppressed by the kill) is
        // allowed and expected.
        assert!(
            recovered >= acks,
            "kill_at={kill_at} client {t}: {acks} acked deposits but only \
             {recovered} survived the crash — an acked commit was lost"
        );
        assert!(
            recovered <= attempts,
            "kill_at={kill_at} client {t}: {recovered} recovered deposits \
             exceed {attempts} attempts"
        );
    }
    assert!(
        total_attempts > total_acks,
        "kill_at={kill_at}: every attempt was acked — the kill never interrupted the load"
    );
    (total_attempts, total_acks, probe_hits)
}

#[test]
fn kill_at_post_append_pre_wake_never_acks_a_lost_commit() {
    let mut acked_any = 0;
    for kill_at in [1, 3, 7] {
        let (_attempts, acks, _hits) = kill_episode(kill_at);
        acked_any += acks;
    }
    // Across the sweep some deposits must have been acked pre-kill, or the
    // "no acked commit lost" claim was never exercised.
    assert!(acked_any > 0, "no episode acked anything before its kill");
}
