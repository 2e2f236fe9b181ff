//! The database engine: its state, how it is opened, and its admin
//! surface (metrics, health, checkpoints, crash and recovery, ghost
//! cleanup).
//!
//! The rest of `Database` lives beside this file, one concern each:
//!
//! * [`crate::ddl`] — catalog, tables, indexed and derived views, each
//!   change published as a new schema snapshot ([`crate::schema`]);
//! * [`crate::dml`] — transactions and the one logged write path;
//! * [`crate::maintain`] — immediate view maintenance (the paper's
//!   protocol), version publication, and logical undo;
//! * [`crate::read`] — view and base-row readers;
//! * [`crate::harness`] — verification oracles and ablation switches for
//!   tests, torture and experiments.

use crate::ghosts::GhostQueue;
use crate::health::{HealthMonitor, HealthState, HealthStatsSnapshot};
use crate::schema::SchemaSnapshot;
use crate::versions::VersionStore;
use crate::watermark::CommitWatermark;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_btree::{LogCtx, OpLog};
use txview_common::obs::{Counter, Histogram, ObsClock, Snapshot};
use txview_common::retry::{RetryPolicy, RetryStatsSnapshot};
use txview_common::{Error, IndexId, Key, Lsn, Result, TxnId, ViewId};
use txview_lock::{LockManager, LockMode, LockName};
use txview_storage::buffer::BufferPool;
use txview_storage::disk::{DiskManager, MemDisk};
use txview_txn::TxnManager;
use txview_wal::recovery::{recover, RecoveryReport};
use txview_wal::{LogManager, MemLogStore};

/// Aggregate statistics snapshot for experiment reporting.
#[derive(Clone, Debug, Default)]
pub struct DbStats {
    /// Lock-manager counters.
    pub locks: txview_lock::manager::LockStatsSnapshot,
    /// Log records appended since open.
    pub log_records: u64,
    /// Log bytes appended since open.
    pub log_bytes: u64,
    /// I/O resilience counters (retry layers + health machine).
    pub resilience: ResilienceStats,
}

/// Snapshot of the resilience layer: current health, health-machine
/// counters, per-seam I/O retry counters, and `run_txn` attempt telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Current engine health state.
    pub health: HealthState,
    /// Degradations / rejected writes / heals / fences.
    pub health_counters: HealthStatsSnapshot,
    /// Buffer-pool I/O retries (page writes, resilient reads).
    pub pool_io: RetryStatsSnapshot,
    /// Log-manager I/O retries (appends, syncs, master writes).
    pub log_io: RetryStatsSnapshot,
    /// Transactions started by `run_txn` (first tries + retries).
    pub txn_attempts: u64,
    /// `run_txn` retries after a retryable failure.
    pub txn_retries: u64,
    /// Total backoff slept between `run_txn` attempts, in microseconds.
    pub txn_backoff_micros: u64,
}

/// Result of one ghost-cleanup sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhostCleanupReport {
    /// Rows physically removed.
    pub removed: usize,
    /// Rows skipped because a transaction still holds a conflicting lock.
    pub skipped_locked: usize,
    /// Rows skipped because they became visible again (resurrected).
    pub skipped_live: usize,
}

/// Applied cascade refreshes as `(txn, view, group-key)`.
pub type CascadeTrace = Vec<(TxnId, ViewId, Vec<u8>)>;

/// The engine. Share via `Arc`; transactions are `&mut` and single-threaded.
pub struct Database {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) log: Arc<LogManager>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) txns: TxnManager,
    /// The published schema: catalog, open trees and view graph. DDL
    /// replaces the `Arc`; a statement clones it once and reads through it.
    pub(crate) schema: RwLock<Arc<SchemaSnapshot>>,
    pub(crate) versions: VersionStore,
    pub(crate) watermark: CommitWatermark,
    /// Ghost-cleanup work queue, FIFO with enqueue dedup.
    pub(crate) ghost_queue: GhostQueue,
    /// Ablation: propagate each parent delta to children immediately (one
    /// refresh per DML) instead of coalescing to one per (view, group, txn).
    pub(crate) cascade_eager: AtomicBool,
    /// Test probe: when armed, every applied cascade refresh records
    /// `(txn, view, group-key)` — the exactly-once oracle reads this.
    pub(crate) cascade_trace: Mutex<Option<CascadeTrace>>,
    /// Pending-delta counters of deferred views (E6 staleness metric).
    pub(crate) deferred_pending: Mutex<HashMap<ViewId, u64>>,
    /// Sidecar path persisting the catalog at each DDL (None = in-memory).
    pub(crate) catalog_path: Mutex<Option<std::path::PathBuf>>,
    /// Health state machine (Healthy → DegradedReadOnly → Fenced).
    pub(crate) health: HealthMonitor,
    /// Tick source installed by [`Database::set_metrics_ticks`], kept so a
    /// commit pipeline enabled later still joins the deterministic clock.
    metrics_ticks: Mutex<Option<Arc<AtomicU64>>>,
    /// Backoff shape for `run_txn` retries (attempts come from the caller;
    /// only the delay curve and jitter seed live here).
    pub(crate) txn_backoff: Mutex<RetryPolicy>,
    /// `run_txn` telemetry: transactions started.
    pub(crate) txn_attempts: AtomicU64,
    /// `run_txn` telemetry: retries after retryable failures.
    pub(crate) txn_retries: AtomicU64,
    /// `run_txn` telemetry: total backoff slept, in microseconds.
    pub(crate) txn_backoff_micros: AtomicU64,
    /// Engine-level observability (escrow vs X-path counters, phase clock).
    pub(crate) obs: EngineObs,
}

/// Engine-level observability: which maintenance path view deltas take,
/// plus the clock the DML phase timers (acquire / maintain) read.
#[derive(Default)]
pub struct EngineObs {
    /// Time source; switched to a logical tick counter in deterministic runs.
    pub clock: ObsClock,
    /// View deltas applied through the escrow (E-lock, in-place) path.
    pub escrow_applies: Counter,
    /// View deltas applied through the X-lock full-rewrite (MIN/MAX) path.
    pub minmax_rewrites: Counter,
    /// MIN/MAX deletes that retired the stored extremum and recomputed the
    /// group from base (the expensive fallback; non-extremal deletes fold
    /// in place and never touch base).
    pub minmax_recomputes: Counter,
    /// Invisible group rows materialized by system transactions.
    pub group_creates: Counter,
    /// Ghost rows physically removed by cleanup sweeps.
    pub ghosts_removed: Counter,
    /// Child deltas projected into per-transaction cascade queues.
    pub cascade_enqueues: Counter,
    /// Enqueues that merged into an existing (view, group) entry — the
    /// work coalescing saved versus eager propagation.
    pub cascade_coalesce_hits: Counter,
    /// Derived-view refreshes actually applied (flush drains + eager mode).
    pub cascade_refreshes: Counter,
    /// Coalesced entries drained per commit flush (flushes with work only).
    pub cascade_flush_entries: Histogram,
    /// Deepest DAG level reached per commit flush.
    pub cascade_flush_depth: Histogram,
}

impl Database {
    /// Fully in-memory database (tests, benches): `MemDisk` + `MemLogStore`.
    pub fn new_in_memory(pool_pages: usize) -> Arc<Database> {
        Database::new_in_memory_with(pool_pages, Duration::from_secs(10))
    }

    /// Fully in-memory database with a custom lock-wait timeout.
    pub fn new_in_memory_with(pool_pages: usize, lock_timeout: Duration) -> Arc<Database> {
        Database::with_parts(
            Arc::new(MemDisk::new()),
            Box::new(MemLogStore::new()),
            pool_pages,
            lock_timeout,
        )
        .expect("in-memory open cannot fail")
    }

    /// Fully in-memory database whose log store spins for a seeded
    /// per-sync latency (`base_us` plus jitter in `[0, jitter_us]`
    /// microseconds) — a deterministic stand-in for a real device fsync,
    /// making commit-path batching (group commit) measurable in
    /// benches without touching a filesystem.
    pub fn new_in_memory_slow_sync(
        pool_pages: usize,
        lock_timeout: Duration,
        base_us: u64,
        jitter_us: u64,
        seed: u64,
    ) -> Arc<Database> {
        let store = txview_wal::FaultLogStore::new(txview_storage::fault::FaultClock::new());
        store.set_sync_latency(base_us, jitter_us, seed);
        Database::with_parts(Arc::new(MemDisk::new()), Box::new(store), pool_pages, lock_timeout)
            .expect("in-memory open cannot fail")
    }

    /// Assemble a database over arbitrary storage parts.
    pub fn with_parts(
        disk: Arc<dyn DiskManager>,
        log_store: Box<dyn txview_wal::LogStore>,
        pool_pages: usize,
        lock_timeout: Duration,
    ) -> Result<Arc<Database>> {
        let log = Arc::new(LogManager::open(log_store)?);
        let pool = BufferPool::new(disk, pool_pages);
        let l2 = Arc::clone(&log);
        pool.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        let locks = Arc::new(LockManager::new(lock_timeout));
        let txns = TxnManager::new(Arc::clone(&log), Arc::clone(&locks));
        Ok(Arc::new(Database {
            pool,
            log,
            locks,
            txns,
            schema: RwLock::new(Arc::default()),
            versions: VersionStore::new(),
            watermark: CommitWatermark::new(),
            ghost_queue: GhostQueue::new(),
            cascade_eager: AtomicBool::new(false),
            cascade_trace: Mutex::new(None),
            deferred_pending: Mutex::new(HashMap::new()),
            catalog_path: Mutex::new(None),
            health: HealthMonitor::new(),
            metrics_ticks: Mutex::new(None),
            txn_backoff: Mutex::new(RetryPolicy::no_delay(0)),
            txn_attempts: AtomicU64::new(0),
            txn_retries: AtomicU64::new(0),
            txn_backoff_micros: AtomicU64::new(0),
            obs: EngineObs::default(),
        }))
    }

    /// Reopen a database over surviving storage parts, as after a crash:
    /// load the catalog snapshot (if any), re-attach the trees, and run
    /// ARIES recovery before handing the database out. [`Database::open_dir`]
    /// is this over files; the torture harness reopens frozen in-memory
    /// images through it.
    pub fn with_parts_recovered(
        disk: Arc<dyn DiskManager>,
        log_store: Box<dyn txview_wal::LogStore>,
        catalog: Option<&[u8]>,
        pool_pages: usize,
        lock_timeout: Duration,
    ) -> Result<(Arc<Database>, RecoveryReport)> {
        let db = Database::with_parts(disk, log_store, pool_pages, lock_timeout)?;
        if let Some(bytes) = catalog {
            db.load_catalog(bytes)?;
        }
        let report = recover(&db.log, &db.pool, db.as_ref())?;
        Ok((db, report))
    }

    /// Open (or create) a durable database in `dir`: `data.db` (pages),
    /// `wal.log` (+ `.master`), and `catalog.bin` (DDL state). Runs crash
    /// recovery before returning, so the database is always consistent.
    pub fn open_dir(
        dir: impl AsRef<std::path::Path>,
        pool_pages: usize,
        lock_timeout: Duration,
    ) -> Result<(Arc<Database>, RecoveryReport)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let disk = Arc::new(txview_storage::disk::FileDisk::open(dir.join("data.db"))?);
        let store = Box::new(txview_wal::FileLogStore::open(dir.join("wal.log"))?);
        let catalog_path = dir.join("catalog.bin");
        let catalog = match std::fs::read(&catalog_path) {
            Ok(bytes) => Some(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        let (db, report) = Database::with_parts_recovered(
            disk,
            store,
            catalog.as_deref(),
            pool_pages,
            lock_timeout,
        )?;
        *db.catalog_path.lock() = Some(catalog_path);
        Ok((db, report))
    }

    /// The buffer pool (diagnostics, checkpoints).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The log manager (diagnostics).
    pub fn log(&self) -> &Arc<LogManager> {
        &self.log
    }

    /// The lock manager (diagnostics).
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// Counters for the experiment harness.
    pub fn stats(&self) -> DbStats {
        DbStats {
            locks: self.locks.stats(),
            log_records: self.log.appended_records(),
            log_bytes: self.log.appended_bytes(),
            resilience: ResilienceStats {
                health: self.health.state(),
                health_counters: self.health.stats(),
                pool_io: self.pool.io_retry_stats(),
                log_io: self.log.io_retry_stats(),
                txn_attempts: self.txn_attempts.load(Ordering::Relaxed),
                txn_retries: self.txn_retries.load(Ordering::Relaxed),
                txn_backoff_micros: self.txn_backoff_micros.load(Ordering::Relaxed),
            },
        }
    }

    /// The published schema snapshot. The lock is held only to clone the
    /// `Arc`, never across a statement.
    pub(crate) fn schema(&self) -> Arc<SchemaSnapshot> {
        Arc::clone(&self.schema.read())
    }

    // ---- observability ---------------------------------------------------

    /// Point-in-time metrics snapshot of the whole engine: `engine.*`
    /// counters plus the `versions.*`, `lock.*`, `wal.*`, `pool.*`, and
    /// `txn.*` sections merged from each layer. Names stay sorted, so two
    /// snapshots of identically-seeded deterministic runs compare equal
    /// structurally.
    pub fn metrics_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.counter("engine.escrow_applies", self.obs.escrow_applies.get());
        s.counter("engine.minmax_rewrites", self.obs.minmax_rewrites.get());
        s.counter("engine.minmax_recomputes", self.obs.minmax_recomputes.get());
        s.counter("engine.group_creates", self.obs.group_creates.get());
        s.counter("engine.ghosts_removed", self.obs.ghosts_removed.get());
        s.gauge("engine.ghost_backlog", self.ghost_queue.len() as i64);
        s.gauge(
            "engine.deferred_pending",
            self.deferred_pending.lock().values().map(|&v| v as i64).sum(),
        );
        // Cascade (derived-view DAG) surface.
        let schema = self.schema();
        s.gauge("view.graph.views", schema.catalog.views().count() as i64);
        s.gauge("view.graph.max_depth", i64::from(schema.max_depth()));
        s.counter("view.graph.enqueues", self.obs.cascade_enqueues.get());
        s.counter("view.graph.coalesce_hits", self.obs.cascade_coalesce_hits.get());
        s.counter("view.graph.refreshes", self.obs.cascade_refreshes.get());
        s.hist("view.graph.flush_entries", self.obs.cascade_flush_entries.snapshot());
        s.hist("view.graph.flush_depth", self.obs.cascade_flush_depth.snapshot());
        // Health surface: torture oracles and the server layer assert on
        // these instead of reaching into engine internals.
        let hs = self.health.stats();
        s.gauge("engine.health_state", self.health.state().level());
        s.label("engine.health_state_name", self.health.state().name());
        s.label("engine.health_reason", self.health.reason());
        s.counter("engine.health_degradations", hs.degradations);
        s.counter("engine.health_writes_rejected", hs.writes_rejected);
        s.counter("engine.health_heals", hs.heals);
        s.counter("engine.health_fences", hs.fences);
        s.merge(self.versions.obs_snapshot());
        s.merge(self.locks.obs_snapshot());
        s.merge(self.log.obs_snapshot());
        s.merge(self.pool.obs_snapshot());
        s.merge(self.txns.obs_snapshot());
        s
    }

    /// Switch every layer's metrics clock to a shared logical tick counter
    /// (the torture harness passes the fault clock's event counter, making
    /// recorded "durations" deterministic event-count deltas). One-way:
    /// the first tick source a clock sees wins.
    pub fn set_metrics_ticks(&self, ticks: Arc<AtomicU64>) {
        self.obs.clock.use_ticks(Arc::clone(&ticks));
        self.locks.obs().clock.use_ticks(Arc::clone(&ticks));
        self.log.obs().clock.use_ticks(Arc::clone(&ticks));
        self.pool.obs().clock.use_ticks(Arc::clone(&ticks));
        self.txns.obs().clock.use_ticks(Arc::clone(&ticks));
        if let Some(p) = self.txns.pipeline() {
            p.use_ticks(Arc::clone(&ticks));
        }
        *self.metrics_ticks.lock() = Some(ticks);
    }

    // ---- group commit ----------------------------------------------------

    /// Install the leader-based group-commit pipeline on the commit path.
    pub fn enable_commit_pipeline(&self) {
        self.txns.enable_pipeline();
        if let Some(ticks) = self.metrics_ticks.lock().clone() {
            if let Some(p) = self.txns.pipeline() {
                p.use_ticks(ticks);
            }
        }
    }

    /// Quiesce the commit path for shutdown: wait until no group-commit
    /// round is in flight and no parked committer is still pending, then
    /// flush the WAL tail. Callers must have stopped submitting new
    /// commits first (the server stops its workers before calling this);
    /// otherwise drain chases a moving target.
    pub fn drain_commits(&self) -> Result<()> {
        if let Some(p) = self.txns.pipeline() {
            p.drain();
        }
        self.log.flush_all()
    }

    // ---- resilience ------------------------------------------------------

    /// The health state machine (diagnostics, tests).
    pub fn health(&self) -> &HealthMonitor {
        &self.health
    }

    /// Install one I/O retry policy on both durable seams (buffer pool
    /// page writes and log appends/syncs/master writes).
    pub fn set_io_retry_policy(&self, policy: RetryPolicy) {
        self.pool.set_retry_policy(policy);
        self.log.set_retry_policy(policy);
    }

    /// Shape the deterministic backoff `run_txn` sleeps between attempts
    /// (the default sleeps nothing, preserving tight-loop retry).
    pub fn set_txn_backoff(&self, policy: RetryPolicy) {
        *self.txn_backoff.lock() = policy;
    }

    /// Classify a write-path failure: exhausted transient retries or a
    /// permanent I/O error demote the engine to read-only service. The
    /// caller still sees the original error (nothing was acked).
    pub(crate) fn note_write_result<T>(&self, result: Result<T>, seam: &str) -> Result<T> {
        if let Err(e) = &result {
            if matches!(e, Error::Io(_) | Error::IoTransient(_)) {
                self.health.degrade(&format!("{seam} failed after retries: {e}"));
            }
        }
        result
    }

    /// Classify a commit/checkpoint-path failure: I/O exhaustion degrades
    /// (as above); evidence of corruption in the durable path fences the
    /// engine outright — serving more writes could ack onto a bad log.
    pub(crate) fn note_commit_result<T>(&self, result: Result<T>, seam: &str) -> Result<T> {
        if let Err(e) = &result {
            if matches!(e, Error::Corruption(_)) {
                self.health.fence(&format!("{seam} hit corruption: {e}"));
                return result;
            }
        }
        self.note_write_result(result, seam)
    }

    /// Self-heal probe: while degraded, try one end-to-end durable write
    /// (flush the log, then every dirty page). Success proves the write
    /// path recovered and returns the engine to `Healthy`; failure leaves
    /// it degraded. Fenced engines stay fenced. Returns the state after
    /// the probe.
    pub fn probe_health(&self) -> HealthState {
        if self.health.state() == HealthState::DegradedReadOnly {
            let probe = self.log.flush_all().and_then(|()| self.pool.flush_all());
            if probe.is_ok() {
                self.health.heal();
            }
        }
        self.health.state()
    }

    // ---- checkpoints, crash & recovery ------------------------------------

    /// Write a fuzzy checkpoint. Checkpoint failures are classified like
    /// commit failures: I/O exhaustion degrades, corruption fences.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let result = self.log.checkpoint(&self.pool);
        self.note_commit_result(result, "checkpoint")
    }

    /// Simulate a hard crash (volatile state lost; each dirty page was
    /// "stolen" to disk with probability `steal_probability`) and run ARIES
    /// recovery. Requires no active transactions on the calling side.
    pub fn crash_and_recover(&self, steal_probability: f64, seed: u64) -> Result<RecoveryReport> {
        let mut rng = txview_common::rng::Rng::new(seed);
        self.pool.simulate_crash(steal_probability, &mut rng)?;
        self.log.simulate_crash();
        self.versions.clear();
        self.ghost_queue.clear();
        self.watermark.clear_snapshots();
        self.locks.reset();
        self.txns.reset_active();
        self.health.reset();
        recover(&self.log, &self.pool, self)
    }

    // ---- ghost cleanup ---------------------------------------------------

    /// Queue an entry for ghost cleanup (deduped: a key already pending
    /// is not queued twice).
    pub(crate) fn enqueue_ghost(&self, index: IndexId, kb: Vec<u8>) {
        self.ghost_queue.enqueue(index, kb);
    }

    /// One cleanup sweep: physically remove queued ghosts/zero-count rows
    /// whose keys can be X-locked instantly, each in its own system
    /// transaction.
    pub fn run_ghost_cleanup(&self) -> Result<GhostCleanupReport> {
        // Enqueue-time dedup guarantees the drained batch has no
        // duplicates already.
        let work = self.ghost_queue.drain();
        let mut report = GhostCleanupReport::default();
        let schema = self.schema();
        for (index, kb) in work {
            let key = Key::from_bytes(kb.clone());
            let tree = schema.tree(index)?;
            let cleaner = self.log.alloc_txn_id();
            let name = LockName::key(index, kb.clone());
            if !self.locks.try_acquire(cleaner, name.clone(), LockMode::X)? {
                report.skipped_locked += 1;
                self.ghost_queue.enqueue(index, kb);
                continue;
            }
            let removable = match tree.get(&key)? {
                None => false,
                Some((true, _)) => true, // base-table ghost
                Some((false, value)) => {
                    // A view row is removable when its count settled at 0.
                    match schema.view_at(index) {
                        Some(view) => !crate::maintain::row_visible(view, &value)?,
                        None => false,
                    }
                }
            };
            if removable {
                self.txns.system(|id, last| {
                    let mut ctx = LogCtx { log: &self.log, txn: id, last_lsn: last };
                    tree.remove_record(&key, &mut ctx, &OpLog::System)
                })?;
                report.removed += 1;
                self.obs.ghosts_removed.inc();
            } else {
                report.skipped_live += 1;
            }
            self.locks.release_all(cleaner);
        }
        Ok(report)
    }
}
