//! The bank workload: many accounts funnel into few `branch_balance` view
//! rows — the contention pattern the paper's escrow locking targets.
//!
//! * `accounts(id PK, branch, balance)` with `accounts / branches` rows per
//!   branch;
//! * indexed view `branch_balance = SELECT branch, COUNT_BIG(*),
//!   SUM(balance) FROM accounts GROUP BY branch`;
//! * **transfer** transactions move money between two random accounts
//!   (Zipf-skewed branch choice), so total money is invariant;
//! * **audit** readers scan the whole view and check conservation — an
//!   exact anomaly detector for the isolation-level experiment (E4).

use crate::driver::OpFn;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::rng::{Rng, Zipf};
use txview_common::{row, Result, Row, Value};
use txview_engine::{
    AggSpec, Database, IsolationLevel, MaintenanceMode, Predicate, ViewSource, ViewSpec,
};

/// Name of the bank's indexed view.
pub const VIEW: &str = "branch_balance";

/// Terminal view of the optional derived chain: a single-row global
/// rollup of [`VIEW`] (total count and total money).
pub const CHAIN_TOTAL: &str = "bank_total";

/// Names of the derived chain views a bank with `chain_depth` stacks on
/// [`VIEW`]: `chain_depth - 1` identity levels, then [`CHAIN_TOTAL`].
pub fn chain_view_names(chain_depth: usize) -> Vec<String> {
    (1..=chain_depth)
        .map(|d| {
            if d == chain_depth { CHAIN_TOTAL.to_string() } else { format!("balance_chain_{d}") }
        })
        .collect()
}

/// Bank workload parameters.
#[derive(Clone, Debug)]
pub struct BankConfig {
    /// Total number of accounts.
    pub accounts: i64,
    /// Number of branches (= view rows = contention points).
    pub branches: i64,
    /// Initial balance per account.
    pub initial_balance: i64,
    /// View maintenance protocol under test.
    pub mode: MaintenanceMode,
    /// Zipf skew of branch selection (0 = uniform).
    pub zipf_theta: f64,
    /// Buffer-pool pages.
    pub pool_pages: usize,
    /// Lock-wait timeout.
    pub lock_timeout: Duration,
    /// Commit through the leader-based group-commit pipeline.
    pub pipeline: bool,
    /// Per-sync log-device latency in microseconds (0 = off). Injected
    /// through the fault log store's seeded latency model, so the WAL
    /// behaves like a device with a real fsync cost and commit-path
    /// batching becomes measurable.
    pub sync_latency_us: u64,
    /// Depth of the derived chain stacked on [`VIEW`] (0 = none).
    /// Depth `d` adds `d - 1` identity levels plus the global
    /// [`CHAIN_TOTAL`] rollup, so every commit's view deltas cascade
    /// `d` levels before the WAL commit record is appended.
    pub chain_depth: usize,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            accounts: 8192,
            branches: 8,
            initial_balance: 1000,
            mode: MaintenanceMode::Escrow,
            zipf_theta: 0.0,
            pool_pages: 4096,
            lock_timeout: Duration::from_secs(5),
            pipeline: false,
            sync_latency_us: 0,
            chain_depth: 0,
        }
    }
}

/// A set-up bank database plus its config.
pub struct Bank {
    /// The database.
    pub db: Arc<Database>,
    /// The configuration it was built with.
    pub cfg: BankConfig,
    zipf: Zipf,
}

impl Bank {
    /// Build the schema, create the view, and load the accounts.
    pub fn setup(cfg: BankConfig) -> Result<Bank> {
        use txview_common::schema::{Column, Schema};
        use txview_common::value::ValueType;
        let db = if cfg.sync_latency_us > 0 {
            Database::new_in_memory_slow_sync(
                cfg.pool_pages,
                cfg.lock_timeout,
                cfg.sync_latency_us,
                cfg.sync_latency_us / 4,
                42,
            )
        } else {
            Database::new_in_memory_with(cfg.pool_pages, cfg.lock_timeout)
        };
        if cfg.pipeline {
            db.enable_commit_pipeline();
        }
        let t = db.create_table(
            "accounts",
            Schema::new(
                vec![
                    Column::new("id", ValueType::Int),
                    Column::new("branch", ValueType::Int),
                    Column::new("balance", ValueType::Int),
                ],
                vec![0],
            )?,
        )?;
        db.create_indexed_view(ViewSpec {
            name: VIEW.into(),
            source: ViewSource::Single { table: t, group_by: vec![1] },
            aggs: vec![AggSpec::SumInt { col: 2 }],
            filter: Predicate::True,
            maintenance: cfg.mode,
            deferred: false,
            eager_group_delete: false,
        })?;
        // Stack the derived chain on the view: each level stores
        // [branch | COUNT | SUM(balance)] (identity re-aggregation), the
        // terminal level rolls everything into one global row.
        let mut parent = VIEW.to_string();
        for (i, name) in chain_view_names(cfg.chain_depth).into_iter().enumerate() {
            let group_by = if i + 1 == cfg.chain_depth { vec![] } else { vec![0] };
            db.create_derived_view(&name, &parent, group_by, vec![AggSpec::SumInt { col: 2 }], cfg.mode)?;
            parent = name;
        }
        // Load in batches.
        let mut i = 0i64;
        while i < cfg.accounts {
            let mut txn = db.begin(IsolationLevel::ReadCommitted);
            let end = (i + 1000).min(cfg.accounts);
            while i < end {
                db.insert(&mut txn, "accounts", row![i, i % cfg.branches, cfg.initial_balance])?;
                i += 1;
            }
            db.commit(&mut txn)?;
        }
        db.checkpoint()?;
        let zipf = Zipf::new(cfg.branches as u64, cfg.zipf_theta);
        Ok(Bank { db, cfg, zipf })
    }

    /// The invariant: total money in the system.
    pub fn total_money(&self) -> i64 {
        self.cfg.accounts * self.cfg.initial_balance
    }

    /// Pick an account: Zipf over branches, uniform within the branch.
    fn pick_account(cfg: &BankConfig, zipf: &Zipf, rng: &mut Rng) -> i64 {
        let branch = zipf.sample(rng) as i64;
        let per_branch = cfg.accounts / cfg.branches;
        let slot = rng.below(per_branch.max(1) as u64) as i64;
        // Account ids are laid out round-robin: id % branches == branch.
        (slot * cfg.branches + branch).min(cfg.accounts - 1)
    }

    /// Transfer operation: move a small amount between `spread` accounts
    /// (1 = same-account no-op avoided; 2 = classic two-account transfer,
    /// which collides on two view rows and creates deadlock potential
    /// under X-lock maintenance).
    pub fn transfer_op(&self, spread: usize) -> Arc<OpFn> {
        let cfg = self.cfg.clone();
        let zipf = self.zipf.clone();
        Arc::new(move |db, txn, rng, _seq| {
            let amount = rng.range_inclusive(1, 10);
            let mut ids = Vec::with_capacity(spread);
            while ids.len() < spread {
                let id = Self::pick_account(&cfg, &zipf, rng);
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            // Debit the first, credit the rest evenly (deliberately NOT
            // sorted: lock-order collisions are part of the experiment).
            let credit = amount / (spread as i64 - 1).max(1);
            db.update_with(txn, "accounts", &[Value::Int(ids[0])], |r| {
                add_balance(r, -credit * (spread as i64 - 1).max(1))
            })?;
            for &id in &ids[1..] {
                db.update_with(txn, "accounts", &[Value::Int(id)], |r| add_balance(r, credit))?;
            }
            Ok(())
        })
    }

    /// Deposit operation: a single-account balance adjustment — one base
    /// row, one view row. This is the minimal-contention writer the
    /// throughput sweeps use; it does not preserve total money, so the
    /// audit invariant is only combined with transfer workloads.
    pub fn deposit_op(&self) -> Arc<OpFn> {
        let cfg = self.cfg.clone();
        let zipf = self.zipf.clone();
        Arc::new(move |db, txn, rng, _seq| {
            let id = Self::pick_account(&cfg, &zipf, rng);
            let d = rng.range_inclusive(-5, 5);
            db.update_with(txn, "accounts", &[Value::Int(id)], |r| add_balance(r, d))
        })
    }

    /// Batched deposit: `k` account updates in ONE transaction. View-row
    /// locks are then held across the whole transaction — the contention
    /// pattern the paper targets (real transactions touch many rows).
    pub fn batch_deposit_op(&self, k: usize) -> Arc<OpFn> {
        let cfg = self.cfg.clone();
        let zipf = self.zipf.clone();
        Arc::new(move |db, txn, rng, _seq| {
            for _ in 0..k {
                let id = Self::pick_account(&cfg, &zipf, rng);
                let d = rng.range_inclusive(-5, 5);
                db.update_with(txn, "accounts", &[Value::Int(id)], |r| add_balance(r, d))?;
            }
            Ok(())
        })
    }

    /// Audit operation: scan the whole view, check money conservation.
    /// Increments `anomalies` when the sum does not match (expected 0 under
    /// Serializable and Snapshot; possible under ReadCommitted).
    pub fn audit_op(&self, anomalies: Arc<AtomicU64>) -> Arc<OpFn> {
        let total = self.total_money();
        Arc::new(move |db, txn, _rng, _seq| {
            let rows = db.view_scan(txn, VIEW, None, None)?;
            let mut sum = 0i64;
            for r in &rows {
                sum += r.get(2).as_int()?; // [branch, count, sum]
            }
            if sum != total {
                anomalies.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
    }

    /// Chain audit: read the terminal [`CHAIN_TOTAL`] rollup and check
    /// money conservation there. Because commit-time flushing coalesces a
    /// transfer's debit and credit before they reach the global row, the
    /// rollup's SUM never transits an unbalanced state — even
    /// ReadCommitted audits of the terminal view are exact (unlike
    /// [`Bank::audit_op`], whose multi-row scan can catch [`VIEW`]
    /// mid-transfer under ReadCommitted).
    pub fn chain_audit_op(&self, anomalies: Arc<AtomicU64>) -> Arc<OpFn> {
        assert!(self.cfg.chain_depth > 0, "chain_audit_op needs a chained bank");
        let total = self.total_money();
        let accounts = self.cfg.accounts;
        Arc::new(move |db, txn, _rng, _seq| {
            let rows = db.view_scan(txn, CHAIN_TOTAL, None, None)?;
            // [group(0), COUNT_BIG, SUM(balance)]
            let ok = rows.len() == 1
                && rows[0].get(1).as_int()? == accounts
                && rows[0].get(2).as_int()? == total;
            if !ok {
                anomalies.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
    }

    /// Verify the view against base (quiesced), and every chain level
    /// against both its immediate parent and a transitive recompute.
    pub fn verify(&self) -> Result<()> {
        self.db.harness().verify_view(VIEW)?;
        for name in chain_view_names(self.cfg.chain_depth) {
            self.db.harness().verify_view(&name)?;
            self.db.harness().verify_view_from_parent(&name)?;
        }
        Ok(())
    }

    /// Total money as seen through the terminal chain view (quiesced).
    pub fn chain_total(&self) -> Result<i64> {
        let mut txn = self.db.begin(IsolationLevel::ReadCommitted);
        let rows = self.db.view_scan(&mut txn, CHAIN_TOTAL, None, None)?;
        let sum = rows.iter().map(|r| r.get(2).as_int().unwrap_or(0)).sum();
        self.db.commit(&mut txn)?;
        Ok(sum)
    }
}

fn add_balance(r: &Row, d: i64) -> Row {
    let mut out = r.clone();
    let bal = r.get(2).as_int().expect("balance is INT");
    out.set(2, Value::Int(bal + d));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_for, WorkerSpec};

    fn small() -> BankConfig {
        BankConfig { accounts: 256, branches: 4, ..Default::default() }
    }

    #[test]
    fn setup_loads_and_view_is_consistent() {
        let bank = Bank::setup(small()).unwrap();
        bank.verify().unwrap();
        let mut txn = bank.db.begin(IsolationLevel::ReadCommitted);
        let rows = bank.db.view_scan(&mut txn, VIEW, None, None).unwrap();
        assert_eq!(rows.len(), 4);
        let total: i64 = rows.iter().map(|r| r.get(2).as_int().unwrap()).sum();
        assert_eq!(total, bank.total_money());
        bank.db.commit(&mut txn).unwrap();
    }

    #[test]
    fn transfers_conserve_money_under_concurrency() {
        let bank = Bank::setup(small()).unwrap();
        let specs = [WorkerSpec {
            name: "transfer".into(),
            threads: 4,
            isolation: IsolationLevel::ReadCommitted,
            op: bank.transfer_op(2),
        }];
        let res = run_for(&bank.db, &specs, Duration::from_millis(300));
        assert!(res[0].committed > 0);
        bank.verify().unwrap();
        let mut txn = bank.db.begin(IsolationLevel::ReadCommitted);
        let rows = bank.db.view_scan(&mut txn, VIEW, None, None).unwrap();
        let total: i64 = rows.iter().map(|r| r.get(2).as_int().unwrap()).sum();
        assert_eq!(total, bank.total_money());
        bank.db.commit(&mut txn).unwrap();
    }

    #[test]
    fn serializable_audit_sees_no_anomalies() {
        let bank = Bank::setup(small()).unwrap();
        let anomalies = Arc::new(AtomicU64::new(0));
        let specs = [
            WorkerSpec {
                name: "transfer".into(),
                threads: 2,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.transfer_op(2),
            },
            WorkerSpec {
                name: "audit".into(),
                threads: 1,
                isolation: IsolationLevel::Serializable,
                op: bank.audit_op(Arc::clone(&anomalies)),
            },
        ];
        let res = run_for(&bank.db, &specs, Duration::from_millis(400));
        assert!(res[1].committed > 0, "auditor made progress");
        assert_eq!(anomalies.load(Ordering::Relaxed), 0, "serializable audits are exact");
        bank.verify().unwrap();
    }

    #[test]
    fn snapshot_audit_sees_no_anomalies_without_blocking() {
        let bank = Bank::setup(small()).unwrap();
        let anomalies = Arc::new(AtomicU64::new(0));
        let specs = [
            WorkerSpec {
                name: "transfer".into(),
                threads: 2,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.transfer_op(2),
            },
            WorkerSpec {
                name: "audit".into(),
                threads: 1,
                isolation: IsolationLevel::Snapshot,
                op: bank.audit_op(Arc::clone(&anomalies)),
            },
        ];
        let res = run_for(&bank.db, &specs, Duration::from_millis(400));
        assert!(res[1].committed > 0);
        assert_eq!(anomalies.load(Ordering::Relaxed), 0, "snapshot audits are exact");
        bank.verify().unwrap();
    }

    #[test]
    fn chained_setup_is_consistent() {
        let bank = Bank::setup(BankConfig { chain_depth: 3, ..small() }).unwrap();
        bank.verify().unwrap();
        assert_eq!(bank.chain_total().unwrap(), bank.total_money());
    }

    #[test]
    fn transfers_conserve_money_through_the_chain() {
        for mode in [MaintenanceMode::Escrow, MaintenanceMode::XLock] {
            let bank = Bank::setup(BankConfig { chain_depth: 2, mode, ..small() }).unwrap();
            let specs = [WorkerSpec {
                name: "transfer".into(),
                threads: 4,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.transfer_op(2),
            }];
            let res = run_for(&bank.db, &specs, Duration::from_millis(300));
            assert!(res[0].committed > 0);
            bank.verify().unwrap();
            assert_eq!(bank.chain_total().unwrap(), bank.total_money(), "{mode:?}");
        }
    }

    #[test]
    fn coalescing_nets_transfers_before_the_terminal_rollup() {
        // A transfer's debit and credit coalesce to a zero delta before the
        // global rollup row is touched, so even ReadCommitted audits of the
        // terminal view are exact while transfers are in flight.
        let bank = Bank::setup(BankConfig { chain_depth: 2, ..small() }).unwrap();
        let anomalies = Arc::new(AtomicU64::new(0));
        let specs = [
            WorkerSpec {
                name: "transfer".into(),
                threads: 2,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.transfer_op(2),
            },
            WorkerSpec {
                name: "chain-audit".into(),
                threads: 1,
                isolation: IsolationLevel::ReadCommitted,
                op: bank.chain_audit_op(Arc::clone(&anomalies)),
            },
        ];
        let res = run_for(&bank.db, &specs, Duration::from_millis(400));
        assert!(res[0].committed > 0 && res[1].committed > 0);
        assert_eq!(anomalies.load(Ordering::Relaxed), 0, "terminal rollup audits are exact");
        bank.verify().unwrap();
    }

    #[test]
    fn chained_bank_survives_pipelined_commits() {
        let bank = Bank::setup(BankConfig { chain_depth: 3, pipeline: true, ..small() }).unwrap();
        let specs = [WorkerSpec {
            name: "transfer".into(),
            threads: 3,
            isolation: IsolationLevel::ReadCommitted,
            op: bank.transfer_op(2),
        }];
        let res = run_for(&bank.db, &specs, Duration::from_millis(300));
        assert!(res[0].committed > 0);
        bank.verify().unwrap();
        assert_eq!(bank.chain_total().unwrap(), bank.total_money());
    }

    #[test]
    fn zipf_skew_builds() {
        let bank = Bank::setup(BankConfig { zipf_theta: 1.2, ..small() }).unwrap();
        let mut rng = Rng::new(7);
        let mut seen0 = 0;
        for _ in 0..1000 {
            if Bank::pick_account(&bank.cfg, &bank.zipf, &mut rng) % bank.cfg.branches == 0 {
                seen0 += 1;
            }
        }
        assert!(seen0 > 400, "rank-0 branch dominates: {seen0}");
    }
}
