//! End-to-end TCP integration: N concurrent clients against a real
//! ephemeral-port server, checking the bank invariant *through the wire*,
//! health degradation surfacing as retryable errors mid-run, the
//! admission-control shed path, pipelined requests on one connection, and
//! a client that stops reading.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txview_common::{Error, Value};
use txview_server::{wire, Client, Request, Response, Server, ServerConfig, WireErrorCode};
use txview_workload::bank::{Bank, BankConfig, VIEW};

fn start_bank_server(accounts: i64, branches: i64, cfg: ServerConfig) -> (Bank, Server) {
    let bank = Bank::setup(BankConfig {
        accounts,
        branches,
        pipeline: true,
        ..Default::default()
    })
    .expect("bank setup");
    let server = Server::start(bank.db.clone(), "127.0.0.1:0", cfg).expect("server start");
    (bank, server)
}

/// Tiny deterministic LCG so each client thread gets its own schedule.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    *state >> 33
}

/// Sum every branch row of the view over the wire.
fn wire_total(client: &mut Client, branches: i64) -> i64 {
    let mut total = 0;
    for b in 0..branches {
        let row = client
            .view_read(VIEW, vec![Value::Int(b)])
            .expect("view read")
            .expect("branch row present");
        // Stored layout: [branch, COUNT_BIG, SUM(balance)].
        match row[2] {
            Value::Int(sum) => total += sum,
            ref other => panic!("non-int SUM: {other:?}"),
        }
    }
    total
}

#[test]
fn concurrent_clients_preserve_bank_invariant_over_tcp() {
    const ACCOUNTS: i64 = 64;
    const BRANCHES: i64 = 4;
    const CLIENTS: usize = 6;
    const TXNS: usize = 40;
    let (bank, server) = start_bank_server(ACCOUNTS, BRANCHES, ServerConfig::default());
    let addr = server.local_addr();

    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let mut rng = 0x9e3779b9u64.wrapping_mul(t as u64 + 1) | 1;
            let mut committed = 0u64;
            for i in 0..TXNS {
                let a = (lcg(&mut rng) % ACCOUNTS as u64) as i64;
                let mut b = (lcg(&mut rng) % ACCOUNTS as u64) as i64;
                if b == a {
                    b = (b + 1) % ACCOUNTS;
                }
                let amount = (lcg(&mut rng) % 9 + 1) as i64;
                // Conserving transfer: debit a, credit b, inside one txn.
                // Any mid-transaction error (e.g. a deadlock victim) rolls
                // the whole transaction back server-side, so conservation
                // holds whether or not we get to commit.
                if c.begin(0).is_err() {
                    continue;
                }
                if c.deposit(a, -amount).is_err() {
                    continue; // server already rolled back
                }
                if c.deposit(b, amount).is_err() {
                    continue;
                }
                if i % 5 == 4 {
                    c.rollback().expect("rollback");
                } else {
                    match c.commit() {
                        Ok(_lsn) => committed += 1,
                        Err(e) => assert!(e.is_retryable(), "commit failed fatally: {e}"),
                    }
                }
            }
            committed
        }));
    }
    let committed: u64 = handles.into_iter().map(|h| h.join().expect("client thread")).sum();
    assert!(committed > 0, "no transfer ever committed — test is vacuous");

    // Invariant through the wire: total money unchanged.
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(wire_total(&mut c, BRANCHES), bank.total_money());
    // Metrics are served over the wire too.
    let metrics = c.metrics().expect("metrics");
    assert!(metrics.contains('='), "metrics text should be name=value lines: {metrics:?}");
    drop(c);

    let stats = server.shutdown().expect("graceful shutdown");
    assert!(stats.requests > 0);
    assert_eq!(stats.suppressed_responses, 0, "graceful path never suppresses responses");
    // And the engine agrees with what the wire reported.
    bank.verify().expect("view verifies against base");
}

#[test]
fn degradation_mid_run_surfaces_retryable_errors_then_heals() {
    const ACCOUNTS: i64 = 32;
    const BRANCHES: i64 = 4;
    const CLIENTS: usize = 3;
    let (bank, server) = start_bank_server(ACCOUNTS, BRANCHES, ServerConfig::default());
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let acked_total = Arc::new(AtomicI64::new(0));
    let mut handles = Vec::new();
    for t in 0..CLIENTS {
        let stop = Arc::clone(&stop);
        let acked_total = Arc::clone(&acked_total);
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let account = t as i64; // private account per client
            let mut degraded_seen = 0u64;
            let mut reads_ok = 0u64;
            while !stop.load(Ordering::Acquire) {
                match c.deposit(account, 1) {
                    Ok(Some(_lsn)) => {
                        acked_total.fetch_add(1, Ordering::AcqRel);
                    }
                    Ok(None) => panic!("autocommit deposit returned a buffered ack"),
                    Err(e) => {
                        assert!(
                            matches!(e, Error::Degraded { .. }),
                            "only Degraded errors are expected mid-run: {e}"
                        );
                        assert!(e.is_retryable());
                        degraded_seen += 1;
                        // Reads must keep working while writes are shed.
                        if c.view_read(VIEW, vec![Value::Int(account % BRANCHES)])
                            .expect("read during degradation")
                            .is_some()
                        {
                            reads_ok += 1;
                        }
                    }
                }
            }
            (degraded_seen, reads_ok)
        }));
    }

    std::thread::sleep(Duration::from_millis(150));
    bank.db.health().degrade("maintenance drill");
    std::thread::sleep(Duration::from_millis(300));
    bank.db.health().heal();
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);

    let mut total_degraded = 0;
    let mut total_reads_ok = 0;
    for h in handles {
        let (degraded_seen, reads_ok) = h.join().expect("client thread");
        total_degraded += degraded_seen;
        total_reads_ok += reads_ok;
    }
    assert!(total_degraded > 0, "no client ever observed the degradation window");
    assert!(total_reads_ok > 0, "no read succeeded during the degradation window");

    // Ack honesty: with a graceful server every acked autocommit — and
    // nothing else — changed the total.
    let mut c = Client::connect(addr).expect("connect");
    let total = wire_total(&mut c, BRANCHES);
    assert_eq!(total, bank.total_money() + acked_total.load(Ordering::Acquire));
    drop(c);
    server.shutdown().expect("graceful shutdown");
}

#[test]
fn fenced_engine_refuses_new_connections_and_closes_sessions() {
    let (bank, server) = start_bank_server(16, 4, ServerConfig::default());
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).expect("connect");
    c1.ping().expect("ping before fence");

    bank.db.health().fence("simulated torn page");

    // New connections are refused at admission with a fatal Fenced frame.
    let mut c2 = Client::connect(addr).expect("tcp connect still succeeds");
    match c2.request(&Request::Ping) {
        Ok(Response::Err { code, .. }) => {
            assert_eq!(code, WireErrorCode::Fenced);
            assert!(!code.is_retryable());
        }
        other => panic!("expected Fenced refusal, got {other:?}"),
    }

    // The established session gets a Fenced error and is then closed.
    match c1.begin(0) {
        Err(Error::Fenced { .. }) => {}
        other => panic!("expected Fenced on live session, got {other:?}"),
    }
    let follow_up = c1.ping();
    assert!(follow_up.is_err(), "session must be severed after Fenced: {follow_up:?}");

    bank.db.health().heal();
    let stats = server.shutdown().expect("graceful shutdown");
    assert!(stats.refused_fenced >= 1);
}

#[test]
fn overloaded_admission_sheds_with_retryable_error() {
    let (_bank, server) = start_bank_server(
        16,
        4,
        ServerConfig { max_sessions: 1, ..Default::default() },
    );
    let addr = server.local_addr();

    let mut c1 = Client::connect(addr).expect("connect");
    c1.ping().expect("first session admitted"); // response ⇒ session registered

    let mut c2 = Client::connect(addr).expect("tcp connect still succeeds");
    match c2.request(&Request::Ping) {
        Ok(Response::Err { code, .. }) => {
            assert_eq!(code, WireErrorCode::Overloaded);
            assert!(code.is_retryable(), "shed must be retryable so clients back off");
        }
        other => panic!("expected Overloaded shed, got {other:?}"),
    }

    // Once the first session leaves, capacity frees up and a retry is
    // admitted (the reader notices EOF at its next poll tick).
    drop(c1);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let mut c3 = Client::connect(addr).expect("connect");
        match c3.request(&Request::Ping) {
            Ok(Response::Pong) => break,
            Ok(Response::Err { code, .. }) if code == WireErrorCode::Overloaded => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "capacity never freed after session close"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("unexpected admission outcome: {other:?}"),
        }
    }

    let stats = server.shutdown().expect("graceful shutdown");
    assert!(stats.shed_overloaded >= 1);
    assert!(stats.accepted >= 2);
}

#[test]
fn pipelined_requests_execute_once_and_reply_in_order() {
    const BRANCHES: i64 = 4;
    let (bank, server) = start_bank_server(16, BRANCHES, ServerConfig::default());
    let addr = server.local_addr();

    // Four frames in one write: the server reads them all at once and must
    // still execute them one after another, in order, each exactly once.
    let mut frames = Vec::new();
    for req in [
        Request::Begin { isolation: 0 },
        Request::Deposit { account: 5, delta: 7 },
        Request::Ping,
        Request::Commit,
    ] {
        frames.extend_from_slice(&wire::encode_frame(&req.encode()));
    }
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    raw.write_all(&frames).expect("write pipelined frames");

    let mut replies = Vec::new();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while replies.len() < 4 {
        match wire::decode_frame(&buf).expect("well-formed reply") {
            Some((payload, used)) => {
                buf.drain(..used);
                replies.push(Response::decode(&payload).expect("decodable reply"));
            }
            None => {
                let n = raw.read(&mut chunk).expect("read reply");
                assert!(n > 0, "server closed after {} replies", replies.len());
                buf.extend_from_slice(&chunk[..n]);
            }
        }
    }
    assert_eq!(replies[0], Response::Ok);
    assert_eq!(replies[1], Response::Ok);
    assert_eq!(replies[2], Response::Pong);
    assert!(matches!(replies[3], Response::Committed { .. }), "got {:?}", replies[3]);
    drop(raw);

    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(wire_total(&mut c, BRANCHES), bank.total_money() + 7);
    drop(c);
    server.shutdown().expect("graceful shutdown");
    bank.verify().expect("view verifies against base");
}

#[test]
fn client_that_stops_reading_does_not_stall_others() {
    let (_bank, server) =
        start_bank_server(16, 4, ServerConfig { workers: 1, ..Default::default() });
    let addr = server.local_addr();

    // A client that floods requests and never reads its replies: the
    // server's reply writes to it block once the socket buffers fill.
    let raw = TcpStream::connect(addr).expect("connect");
    let severer = raw.try_clone().expect("clone");
    let flood = std::thread::spawn(move || {
        let frame = wire::encode_frame(&Request::Metrics.encode());
        let mut raw = raw;
        for _ in 0..200_000 {
            if raw.write_all(&frame).is_err() {
                break; // the server gave up on us
            }
        }
    });
    std::thread::sleep(Duration::from_millis(1500));

    // With one execution permit, a healthy client is still served at once.
    let mut c = Client::connect(addr).expect("connect");
    let start = Instant::now();
    c.ping().expect("ping beside a non-reading client");
    let waited = start.elapsed();
    assert!(waited < Duration::from_millis(500), "ping took {waited:?}");
    drop(c);

    // Wake the flood thread, then close the socket with replies unread: the
    // reset frees the server's blocked write without its 5 s timeout.
    let _ = severer.shutdown(std::net::Shutdown::Both);
    flood.join().expect("flood thread");
    drop(severer);
    server.shutdown().expect("graceful shutdown");
}
