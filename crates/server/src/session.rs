//! Per-session request execution.
//!
//! A session owns at most one open [`Transaction`]. The server gives each
//! connection's thread its own session and that thread executes the
//! connection's requests one after another, so the `&mut` borrow
//! discipline of the engine API holds by construction.
//!
//! Failure handling follows the engine's own convention (see
//! `Database::run_txn`): any error surfaced while a transaction is open
//! rolls that transaction back before the error response is sent, so a
//! session is never left holding locks after telling its client the
//! operation failed. The client decides retry-vs-abort from the wire
//! error code alone.

use crate::wire::{Request, Response};
use std::sync::Arc;
use txview_common::{Error, Value};
use txview_engine::{Database, HealthState, IsolationLevel};
use txview_txn::Transaction;

/// Decode the wire isolation byte.
fn isolation_of(b: u8) -> Option<IsolationLevel> {
    match b {
        0 => Some(IsolationLevel::ReadCommitted),
        1 => Some(IsolationLevel::Serializable),
        2 => Some(IsolationLevel::Snapshot),
        _ => None,
    }
}

/// Transaction state carried by one connection across requests.
pub struct Session {
    db: Arc<Database>,
    txn: Option<Transaction>,
    /// Base table targeted by [`Request::Deposit`]; the bank schema's
    /// `accounts` unless reconfigured.
    pub deposit_table: String,
}

/// What the server should do with the connection after a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Disposition {
    /// Keep serving this session.
    Keep,
    /// Send the response, then close the connection (fenced engine).
    Close,
}

impl Session {
    /// Fresh session with no open transaction.
    pub fn new(db: Arc<Database>) -> Session {
        Session { db, txn: None, deposit_table: "accounts".into() }
    }

    /// True if the session holds an open transaction.
    pub fn has_txn(&self) -> bool {
        self.txn.is_some()
    }

    /// Roll back the open transaction, if any: at connection teardown, and
    /// after a failed op inside it (deadlock victims *must* roll back;
    /// anything else must not keep holding locks behind an error the client
    /// may never retry).
    pub fn abort(&mut self) {
        if let Some(mut txn) = self.txn.take() {
            if txn.is_active() {
                let _ = self.db.rollback(&mut txn);
            }
        }
    }

    /// Execute one request, returning the response and whether the
    /// connection should stay open.
    pub fn execute(&mut self, req: Request) -> (Response, Disposition) {
        let resp = self.execute_inner(req);
        // A fenced engine serves nothing further: after reporting it once,
        // the session closes so clients fail over instead of spinning.
        let disp = match &resp {
            Response::Err { code, .. } if *code == crate::wire::WireErrorCode::Fenced => {
                Disposition::Close
            }
            _ => Disposition::Keep,
        };
        (resp, disp)
    }

    fn execute_inner(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Begin { isolation } => self.do_begin(isolation),
            Request::Commit => self.do_commit(),
            Request::Rollback => self.do_rollback(),
            Request::Deposit { account, delta } => self.do_deposit(account, delta),
            Request::ViewRead { view, group } => self.do_view_read(&view, &group),
            Request::ViewAvg { view, group, agg_idx } => {
                self.do_view_avg(&view, &group, agg_idx as usize)
            }
            Request::Metrics => {
                let snap = self.db.metrics_snapshot();
                let mut text = String::new();
                for (name, v) in &snap.counters {
                    text.push_str(&format!("{name}={v}\n"));
                }
                for (name, v) in &snap.gauges {
                    text.push_str(&format!("{name}={v}\n"));
                }
                Response::Metrics { text }
            }
        }
    }

    fn do_begin(&mut self, isolation: u8) -> Response {
        let Some(iso) = isolation_of(isolation) else {
            return Response::from_error(&Error::invalid(format!(
                "unknown isolation level {isolation}"
            )));
        };
        if self.txn.is_some() {
            return Response::from_error(&Error::invalid(
                "session already has an open transaction",
            ));
        }
        // Admission for *write intent* happens at the DML ops (the engine
        // sheds there); Begin itself is refused only when fenced.
        if self.db.health().state() == HealthState::Fenced {
            return Response::from_error(&Error::Fenced {
                reason: self.db.health().reason(),
            });
        }
        self.txn = Some(self.db.begin(iso));
        Response::Ok
    }

    fn do_commit(&mut self) -> Response {
        let Some(mut txn) = self.txn.take() else {
            return Response::from_error(&Error::invalid("commit without a transaction"));
        };
        match self.db.commit(&mut txn) {
            Ok(lsn) => Response::Committed { lsn: lsn.0 },
            Err(e) => {
                if txn.is_active() {
                    let _ = self.db.rollback(&mut txn);
                }
                Response::from_error(&e)
            }
        }
    }

    fn do_rollback(&mut self) -> Response {
        let Some(mut txn) = self.txn.take() else {
            return Response::from_error(&Error::invalid("rollback without a transaction"));
        };
        match self.db.rollback(&mut txn) {
            Ok(()) => Response::Ok,
            Err(e) => Response::from_error(&e),
        }
    }

    fn do_deposit(&mut self, account: i64, delta: i64) -> Response {
        let table = self.deposit_table.clone();
        let apply = |db: &Database, txn: &mut Transaction| {
            db.update_with(txn, &table, &[Value::Int(account)], |r| {
                let mut out = r.clone();
                let bal = r.get(2).as_int().unwrap_or(0);
                out.set(2, Value::Int(bal + delta));
                out
            })
        };
        if let Some(txn) = self.txn.as_mut() {
            // Buffered in the open transaction; durable at Commit.
            match apply(&self.db, txn) {
                Ok(()) => Response::Ok,
                Err(e) => {
                    self.abort();
                    Response::from_error(&e)
                }
            }
        } else {
            // Autocommit: one transaction per deposit, ack carries the LSN.
            let mut txn = self.db.begin(IsolationLevel::ReadCommitted);
            match apply(&self.db, &mut txn).and_then(|()| self.db.commit(&mut txn)) {
                Ok(lsn) => Response::Committed { lsn: lsn.0 },
                Err(e) => {
                    if txn.is_active() {
                        let _ = self.db.rollback(&mut txn);
                    }
                    Response::from_error(&e)
                }
            }
        }
    }

    fn do_view_read(&mut self, view: &str, group: &[Value]) -> Response {
        self.with_read_txn(|db, txn| {
            db.view_lookup(txn, view, group).map(|row| match row {
                Some(r) => Response::Row { present: true, values: r.values().to_vec() },
                None => Response::Row { present: false, values: vec![] },
            })
        })
    }

    fn do_view_avg(&mut self, view: &str, group: &[Value], agg_idx: usize) -> Response {
        self.with_read_txn(|db, txn| {
            db.view_avg(txn, view, group, agg_idx).map(|avg| match avg {
                // SQL NULL (empty/invisible group) travels as absent.
                Value::Float(v) => Response::Avg { present: true, value: v },
                _ => Response::Avg { present: false, value: 0.0 },
            })
        })
    }

    /// Run a read in the session's open transaction, or in an ephemeral
    /// ReadCommitted transaction when none is open. Reads stay served while
    /// the engine is degraded (readers commit no-force).
    fn with_read_txn(
        &mut self,
        body: impl FnOnce(&Database, &mut Transaction) -> txview_common::Result<Response>,
    ) -> Response {
        if let Some(txn) = self.txn.as_mut() {
            match body(&self.db, txn) {
                Ok(resp) => resp,
                Err(e) => {
                    self.abort();
                    Response::from_error(&e)
                }
            }
        } else {
            let mut txn = self.db.begin(IsolationLevel::ReadCommitted);
            let out = body(&self.db, &mut txn);
            let fin = match out {
                Ok(resp) => self.db.commit(&mut txn).map(|_| resp),
                Err(e) => Err(e),
            };
            match fin {
                Ok(resp) => resp,
                Err(e) => {
                    if txn.is_active() {
                        let _ = self.db.rollback(&mut txn);
                    }
                    Response::from_error(&e)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireErrorCode;
    use txview_workload::bank::{Bank, BankConfig};

    fn bank() -> Bank {
        Bank::setup(BankConfig { accounts: 64, branches: 4, ..Default::default() }).unwrap()
    }

    #[test]
    fn autocommit_deposit_acks_with_lsn() {
        let bank = bank();
        let mut s = Session::new(Arc::clone(&bank.db));
        match s.execute(Request::Deposit { account: 3, delta: 5 }).0 {
            Response::Committed { lsn } => assert!(lsn > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!s.has_txn());
    }

    #[test]
    fn explicit_txn_buffers_then_commits() {
        let bank = bank();
        let mut s = Session::new(Arc::clone(&bank.db));
        assert_eq!(s.execute(Request::Begin { isolation: 0 }).0, Response::Ok);
        assert_eq!(s.execute(Request::Deposit { account: 0, delta: 7 }).0, Response::Ok);
        match s.execute(Request::Commit).0 {
            Response::Committed { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // Branch 0's SUM moved by 7.
        match s
            .execute(Request::ViewRead {
                view: txview_workload::bank::VIEW.into(),
                group: vec![Value::Int(0)],
            })
            .0
        {
            Response::Row { present: true, values } => {
                let per_branch = 64 / 4;
                assert_eq!(values[2], Value::Int(per_branch * 1000 + 7));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rollback_discards_buffered_deposit() {
        let bank = bank();
        let mut s = Session::new(Arc::clone(&bank.db));
        s.execute(Request::Begin { isolation: 0 });
        s.execute(Request::Deposit { account: 1, delta: 100 });
        assert_eq!(s.execute(Request::Rollback).0, Response::Ok);
        match s
            .execute(Request::ViewRead {
                view: txview_workload::bank::VIEW.into(),
                group: vec![Value::Int(1)],
            })
            .0
        {
            Response::Row { present: true, values } => {
                assert_eq!(values[2], Value::Int((64 / 4) * 1000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn view_avg_is_sum_over_count() {
        let bank = bank();
        let mut s = Session::new(Arc::clone(&bank.db));
        match s
            .execute(Request::ViewAvg {
                view: txview_workload::bank::VIEW.into(),
                group: vec![Value::Int(2)],
                agg_idx: 0,
            })
            .0
        {
            Response::Avg { present: true, value } => assert_eq!(value, 1000.0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn protocol_misuse_is_fatal_not_retryable() {
        let bank = bank();
        let mut s = Session::new(Arc::clone(&bank.db));
        match s.execute(Request::Commit).0 {
            Response::Err { code, .. } => {
                assert_eq!(code, WireErrorCode::InvalidOperation);
                assert!(!code.is_retryable());
            }
            other => panic!("unexpected {other:?}"),
        }
        s.execute(Request::Begin { isolation: 0 });
        match s.execute(Request::Begin { isolation: 0 }).0 {
            Response::Err { code, .. } => assert_eq!(code, WireErrorCode::InvalidOperation),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn degraded_engine_sheds_writers_with_retryable_code_but_serves_reads() {
        let bank = bank();
        bank.db.health().degrade("test outage");
        let mut s = Session::new(Arc::clone(&bank.db));
        match s.execute(Request::Deposit { account: 0, delta: 1 }).0 {
            Response::Err { code, .. } => {
                assert_eq!(code, WireErrorCode::Degraded);
                assert!(code.is_retryable());
            }
            other => panic!("unexpected {other:?}"),
        }
        match s
            .execute(Request::ViewRead {
                view: txview_workload::bank::VIEW.into(),
                group: vec![Value::Int(0)],
            })
            .0
        {
            Response::Row { present: true, .. } => {}
            other => panic!("reads must survive degradation: {other:?}"),
        }
        bank.db.health().heal();
    }

    #[test]
    fn fenced_engine_closes_the_session() {
        let bank = bank();
        bank.db.health().fence("test corruption");
        let mut s = Session::new(Arc::clone(&bank.db));
        let (resp, disp) = s.execute(Request::Begin { isolation: 0 });
        match resp {
            Response::Err { code, .. } => {
                assert_eq!(code, WireErrorCode::Fenced);
                assert!(!code.is_retryable());
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(disp, Disposition::Close);
    }

    #[test]
    fn failed_op_aborts_the_open_transaction() {
        let bank = bank();
        let mut s = Session::new(Arc::clone(&bank.db));
        s.execute(Request::Begin { isolation: 0 });
        match s
            .execute(Request::ViewRead { view: "no_such_view".into(), group: vec![] })
            .0
        {
            Response::Err { code, .. } => assert_eq!(code, WireErrorCode::Schema),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!s.has_txn(), "error must roll back the open transaction");
    }
}
