//! The database engine: DDL, DML with immediate view maintenance,
//! commit/rollback, ghost cleanup, crash/recovery, verification.
//!
//! ## The maintenance protocol (the paper's contribution)
//!
//! Every DML statement on a base table computes, per dependent view, a
//! [`RowDelta`] and applies it *inside the same user transaction*:
//!
//! * existing group row, all-SUM view, escrow mode → **E lock** on the view
//!   row key + in-place commutative delta (concurrent transactions touch
//!   the same hot row simultaneously); logged with an `Escrow` logical-undo
//!   descriptor;
//! * existing group row, X-lock baseline (or MIN/MAX view) → **X lock**,
//!   full-row rewrite where needed;
//! * missing group row → **X lock** on the key + instant-duration X gap
//!   lock (phantom protection), insert of a fresh row whose undo is the
//!   *inverse delta* — not record removal — because concurrently committed
//!   escrow increments may have piled onto the row by rollback time (the
//!   group come/go anomaly);
//! * decrement to zero → the row becomes *logically absent* (visibility is
//!   `COUNT_BIG > 0`); it is queued for physical removal by a ghost-cleanup
//!   **system transaction** that takes an instant X lock (skipping rows any
//!   transaction still depends on).

use crate::catalog::{
    AggSpec, Catalog, MaintenanceMode, TableDef, ViewDef, ViewSource, ViewSpec,
};
use crate::delta::{derived_delta, fold_derived, join_delta, single_table_delta, update_deltas};
use crate::escrow::{
    self, agg_region_offset, apply_additive, apply_insert_merge, apply_undo_pairs,
    encode_view_row, initial_aggs, RowDelta,
};
use crate::ghosts::GhostQueue;
use crate::health::{HealthMonitor, HealthState, HealthStatsSnapshot};
use crate::versions::VersionStore;
use crate::watermark::CommitWatermark;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::obs::{Histogram, ObsClock, Snapshot, StripedCounter};
use txview_common::retry::{RetryPolicy, RetryStatsSnapshot};
use txview_common::sharded::ShardMap;
use txview_btree::{LogCtx, OpLog, Tree};
use txview_common::schema::Schema;
use txview_common::value::ValueType;
use txview_common::{Error, IndexId, Key, Lsn, ObjectId, Result, Row, TxnId, Value, ViewId};
use txview_lock::{LockManager, LockMode, LockName};
use txview_storage::buffer::BufferPool;
use txview_storage::disk::{DiskManager, MemDisk};
use txview_txn::{IsolationLevel, Transaction, TxnManager};
use txview_view::{CascadeQueue, PendingDelta, ViewGraph};
use txview_wal::record::{UndoOp, ValueDelta};
use txview_wal::recovery::{recover, RecoveryReport, UndoHandler};
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

/// How a transaction touched one view row, for version publication.
enum Touch {
    /// Net commutative delta accumulated by this transaction.
    Additive(crate::versions::DeltaPairs),
    /// The row was modified under an exclusive lock (MIN/MAX rewrite,
    /// X-lock baseline full paths, eager removal): the physical value at
    /// commit time is a clean committed image.
    Exclusive,
}

/// Per-row touch records of one transaction.
type TouchedRows = HashMap<(IndexId, Vec<u8>), Touch>;

/// The engine. Share via `Arc`; transactions are `&mut` and single-threaded.
pub struct Database {
    pool: Arc<BufferPool>,
    log: Arc<LogManager>,
    pub(crate) locks: Arc<LockManager>,
    pub(crate) txns: TxnManager,
    pub(crate) catalog: RwLock<Catalog>,
    trees: RwLock<HashMap<IndexId, Arc<Tree>>>,
    pub(crate) versions: VersionStore,
    watermark: CommitWatermark,
    /// View rows touched per transaction (for version publication at
    /// commit), sharded by txn id: every DML statement records touches
    /// here, so a single registry mutex would re-serialize the escrow path.
    touched: ShardMap<TxnId, TouchedRows>,
    /// Ghost-cleanup work queue, striped by key hash with enqueue dedup.
    ghost_queue: GhostQueue,
    /// View-dependency DAG: base views at depth 0, derived (view-over-view)
    /// children below, cycle-rejected at registration.
    graph: RwLock<ViewGraph>,
    /// Per-transaction coalescing queues of pending derived-view deltas,
    /// drained in dependency order by the commit flush.
    cascades: ShardMap<TxnId, CascadeQueue>,
    /// Ablation: propagate each parent delta to children immediately (one
    /// refresh per DML) instead of coalescing to one per (view, group, txn).
    cascade_eager: std::sync::atomic::AtomicBool,
    /// Test probe: when armed, every applied cascade refresh records
    /// `(txn, view, group-key)` — the exactly-once oracle reads this.
    cascade_trace: Mutex<Option<Vec<(TxnId, ViewId, Vec<u8>)>>>,
    /// Pending-delta counters of deferred views (E6 staleness metric).
    deferred_pending: Mutex<HashMap<ViewId, u64>>,
    /// Sidecar path persisting the catalog at each DDL (None = in-memory).
    catalog_path: Mutex<Option<std::path::PathBuf>>,
    /// Health state machine (Healthy → DegradedReadOnly → Fenced).
    health: HealthMonitor,
    /// Tick source installed by [`Database::set_metrics_ticks`], kept so a
    /// commit pipeline enabled later still joins the deterministic clock.
    metrics_ticks: Mutex<Option<Arc<AtomicU64>>>,
    /// Backoff shape for `run_txn` retries (attempts come from the caller;
    /// only the delay curve and jitter seed live here).
    txn_backoff: Mutex<RetryPolicy>,
    /// `run_txn` telemetry: transactions started.
    txn_attempts: AtomicU64,
    /// `run_txn` telemetry: retries after retryable failures.
    txn_retries: AtomicU64,
    /// `run_txn` telemetry: total backoff slept, in microseconds.
    txn_backoff_micros: AtomicU64,
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
    /// Striped: every update in every writer thread lands here.
    pub escrow_applies: StripedCounter,
    /// View deltas applied through the X-lock full-rewrite (MIN/MAX) path.
    pub minmax_rewrites: StripedCounter,
    /// MIN/MAX deletes that retired the stored extremum and recomputed the
    /// group from base (the expensive fallback; non-extremal deletes fold
    /// in place and never touch base).
    pub minmax_recomputes: StripedCounter,
    /// Invisible group rows materialized by system transactions.
    pub group_creates: StripedCounter,
    /// Ghost rows physically removed by cleanup sweeps.
    pub ghosts_removed: StripedCounter,
    /// Child deltas projected into per-transaction cascade queues.
    pub cascade_enqueues: StripedCounter,
    /// Enqueues that merged into an existing (view, group) entry — the
    /// work coalescing saved versus eager propagation.
    pub cascade_coalesce_hits: StripedCounter,
    /// Derived-view refreshes actually applied (flush drains + eager mode).
    pub cascade_refreshes: StripedCounter,
    /// Coalesced entries drained per commit flush (flushes with work only).
    pub cascade_flush_entries: Histogram,
    /// Deepest DAG level reached per commit flush.
    pub cascade_flush_depth: Histogram,
}

impl Database {
    /// Fully in-memory database (tests, benches): `MemDisk` + `MemLogStore`.
    pub fn new_in_memory(pool_pages: usize) -> Arc<Database> {
        Database::with_parts(
            Arc::new(MemDisk::new()),
            Box::new(MemLogStore::new()),
            pool_pages,
            Duration::from_secs(10),
        )
        .expect("in-memory open cannot fail")
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
            catalog: RwLock::new(Catalog::new()),
            trees: RwLock::new(HashMap::new()),
            versions: VersionStore::new(),
            watermark: CommitWatermark::new(),
            touched: ShardMap::with_default_shards(),
            ghost_queue: GhostQueue::new(),
            graph: RwLock::new(ViewGraph::new()),
            cascades: ShardMap::with_default_shards(),
            cascade_eager: std::sync::atomic::AtomicBool::new(false),
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
    /// ARIES recovery before handing the database out. This is `open_dir`
    /// without the filesystem — the torture harness reopens frozen
    /// in-memory images through it.
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

    /// Install a previously-exported catalog and attach its trees. Also
    /// used by the replication follower, whose database is built from parts
    /// and given the leader's exported catalog before replay starts.
    pub(crate) fn load_catalog(&self, bytes: &[u8]) -> Result<()> {
        let cat = Catalog::decode(bytes)?;
        let mut trees = self.trees.write();
        for t in cat.tables() {
            trees.insert(t.index, Arc::new(Tree::open(&self.pool, t.index, t.root)));
        }
        for v in cat.views() {
            trees.insert(v.index, Arc::new(Tree::open(&self.pool, v.index, v.root)));
        }
        for i in cat.indexes() {
            trees.insert(i.index, Arc::new(Tree::open(&self.pool, i.index, i.root)));
        }
        drop(trees);
        // Rebuild the dependency DAG. View ids are allocated in DDL order,
        // so registering ascending guarantees each parent precedes its
        // children (DDL rejects forward references).
        let mut graph = ViewGraph::new();
        let mut views: Vec<&ViewDef> = cat.views().collect();
        views.sort_by_key(|v| v.id);
        for v in views {
            match &v.source {
                ViewSource::Derived { parent, .. } => {
                    graph.register_derived(v.id, *parent)?;
                }
                _ => graph.register_base(v.id)?,
            }
        }
        *self.graph.write() = graph;
        *self.catalog.write() = cat;
        Ok(())
    }

    /// Serialize the current catalog (what `open_dir` keeps in
    /// `catalog.bin`), for reopening via [`Database::with_parts_recovered`].
    pub fn export_catalog(&self) -> Vec<u8> {
        self.catalog.read().encode()
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
        let db = Database::with_parts(disk, store, pool_pages, lock_timeout)?;
        let catalog_path = dir.join("catalog.bin");
        if let Ok(bytes) = std::fs::read(&catalog_path) {
            db.load_catalog(&bytes)?;
        }
        *db.catalog_path.lock() = Some(catalog_path);
        let report = recover(&db.log, &db.pool, db.as_ref())?;
        Ok((db, report))
    }

    /// Persist the catalog sidecar if this database is file-backed.
    fn persist_catalog(&self) -> Result<()> {
        if let Some(path) = self.catalog_path.lock().clone() {
            let bytes = self.catalog.read().encode();
            std::fs::write(path, bytes)?;
        }
        Ok(())
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
            resilience: self.resilience_stats(),
        }
    }

    // ---- observability ---------------------------------------------------

    /// Engine-level observability handles (clock switching, direct reads).
    pub fn obs(&self) -> &EngineObs {
        &self.obs
    }

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
        {
            let g = self.graph.read();
            s.gauge("view.graph.views", g.len() as i64);
            s.gauge("view.graph.max_depth", g.max_depth() as i64);
        }
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

    /// Human-readable table of [`Database::metrics_snapshot`].
    pub fn metrics_report(&self) -> String {
        self.metrics_snapshot().report()
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

    /// The installed commit pipeline, if any (diagnostics, tests).
    pub fn commit_pipeline(&self) -> Option<Arc<txview_txn::CommitPipeline>> {
        self.txns.pipeline()
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

    /// Snapshot of the resilience layer across all seams.
    pub fn resilience_stats(&self) -> ResilienceStats {
        ResilienceStats {
            health: self.health.state(),
            health_counters: self.health.stats(),
            pool_io: self.pool.io_retry_stats(),
            log_io: self.log.io_retry_stats(),
            txn_attempts: self.txn_attempts.load(Ordering::Relaxed),
            txn_retries: self.txn_retries.load(Ordering::Relaxed),
            txn_backoff_micros: self.txn_backoff_micros.load(Ordering::Relaxed),
        }
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
    fn note_write_result<T>(&self, result: Result<T>, seam: &str) -> Result<T> {
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
    fn note_commit_result<T>(&self, result: Result<T>, seam: &str) -> Result<T> {
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

    /// Register a tree for an index id (DDL paths).
    pub(crate) fn register_tree(&self, index: IndexId, tree: Tree) {
        self.trees.write().insert(index, Arc::new(tree));
    }

    /// Persist the catalog sidecar (pub-crate wrapper for DDL modules).
    pub(crate) fn persist_catalog_pub(&self) -> Result<()> {
        self.persist_catalog()
    }

    /// Queue an entry for ghost cleanup (deduped: a key already pending
    /// is not queued twice).
    pub(crate) fn enqueue_ghost(&self, index: IndexId, kb: Vec<u8>) {
        self.ghost_queue.enqueue(index, kb);
    }

    pub(crate) fn tree(&self, index: IndexId) -> Result<Arc<Tree>> {
        self.trees
            .read()
            .get(&index)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("index {}", index.0)))
    }

    // ---- DDL -------------------------------------------------------------

    /// Create a table with a clustered index on its primary key.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<ObjectId> {
        if schema.pk().is_empty() {
            return Err(Error::Schema(format!("table '{name}' needs a primary key")));
        }
        let mut cat = self.catalog.write();
        let id = cat.alloc_object();
        let index = cat.alloc_index();
        let tree = Tree::create(&self.pool, &self.log, index)?;
        let root = tree.root();
        cat.add_table(TableDef { id, name: name.to_string(), schema, index, root })?;
        drop(cat);
        self.trees.write().insert(index, Arc::new(tree));
        self.persist_catalog()?;
        Ok(id)
    }

    /// Create an indexed view and populate it from the current base rows.
    /// DDL is assumed quiesced (no concurrent DML), as in the paper's
    /// system, and is followed by a checkpoint so it is crash-durable.
    pub fn create_indexed_view(&self, spec: ViewSpec) -> Result<ViewId> {
        let def = {
            let mut cat = self.catalog.write();
            // Resolve and validate the source.
            let (group_types, base_schema): (Vec<ValueType>, Schema) = match &spec.source {
                ViewSource::Single { table, group_by } => {
                    let t = cat.table_by_id(*table)?;
                    let types = group_by.iter().map(|&c| t.schema.columns()[c].ty).collect();
                    (types, t.schema.clone())
                }
                ViewSource::Join { fact, dim, dim_group_by, fact_fk_col } => {
                    let f = cat.table_by_id(*fact)?;
                    let d = cat.table_by_id(*dim)?;
                    if d.schema.pk().len() != 1 {
                        return Err(Error::Schema("join-view dim needs a 1-column pk".into()));
                    }
                    if *fact_fk_col >= f.schema.arity() {
                        return Err(Error::Schema("fact fk column out of range".into()));
                    }
                    let types = dim_group_by.iter().map(|&c| d.schema.columns()[c].ty).collect();
                    (types, f.schema.clone())
                }
                ViewSource::Derived { .. } => {
                    return Err(Error::Schema(
                        "derived views go through create_derived_view".into(),
                    ));
                }
            };
            for agg in &spec.aggs {
                agg.stored_type(&base_schema)?;
                if !agg.is_escrow_capable() && matches!(spec.source, ViewSource::Join { .. }) {
                    return Err(Error::Schema("MIN/MAX unsupported on join views".into()));
                }
            }
            // The paper's restriction: MIN/MAX force X-lock maintenance.
            let effective = if spec.aggs.iter().all(AggSpec::is_escrow_capable) {
                spec.maintenance
            } else {
                MaintenanceMode::XLock
            };
            let id = cat.alloc_view();
            let object = cat.alloc_object();
            let index = cat.alloc_index();
            let tree = Tree::create(&self.pool, &self.log, index)?;
            let root = tree.root();
            self.trees.write().insert(index, Arc::new(tree));
            let def = ViewDef {
                id,
                object,
                name: spec.name.clone(),
                source: spec.source.clone(),
                aggs: spec.aggs.clone(),
                filter: spec.filter.clone(),
                maintenance: effective,
                deferred: spec.deferred,
                eager_group_delete: spec.eager_group_delete,
                index,
                root,
                group_types,
            };
            cat.add_view(def.clone())?;
            def
        };
        self.graph.write().register_base(def.id)?;
        // Populate from existing base rows.
        let rows = self.compute_view_from_base(&def)?;
        if !rows.is_empty() {
            let mut txn = self.begin(IsolationLevel::ReadCommitted);
            let tree = self.tree(def.index)?;
            for (group, (count, aggs)) in rows {
                let key = Key::from_values(&group);
                let bytes = encode_view_row(&group, count, &aggs)?;
                let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                tree.insert(&key, &bytes, &mut ctx, &OpLog::Update { undo: UndoOp::None })?;
            }
            self.txns.commit(&mut txn)?;
        }
        self.checkpoint()?;
        self.persist_catalog()?;
        Ok(def.id)
    }

    /// Create a **derived** indexed view — a view over another view — and
    /// populate it from the parent's current contents. Derived views are
    /// maintained by the cascade queue at commit (never by base DML
    /// directly): each parent delta projects linearly onto the child, and
    /// the per-transaction queue coalesces everything to one refresh per
    /// `(view, group)` flushed in dependency order before the commit
    /// record.
    ///
    /// The child's COUNT_BIG tracks the **sum of parent counts** (base
    /// rows, transitively), which keeps propagation linear and preserves
    /// the ghost invariant (count 0 ⇒ sums 0) at every level. `group_by`
    /// and aggregate columns index the parent's *stored row layout*
    /// `[group cols | COUNT_BIG | agg cols]`; an empty `group_by` is a
    /// global rollup under one synthetic `Int(0)` group column. Parents
    /// must be non-deferred and all-SUM (MIN/MAX deltas are not linear).
    /// DDL is quiesced, as elsewhere, and followed by a checkpoint.
    pub fn create_derived_view(
        &self,
        name: &str,
        parent_name: &str,
        group_by: Vec<usize>,
        aggs: Vec<AggSpec>,
        maintenance: MaintenanceMode,
    ) -> Result<ViewId> {
        let def = {
            let mut cat = self.catalog.write();
            let parent = cat.view(parent_name)?.clone();
            if parent.deferred {
                return Err(Error::Schema(format!(
                    "derived view '{name}': parent '{parent_name}' is deferred \
                     (no per-statement deltas to cascade)"
                )));
            }
            if !parent.aggs.iter().all(AggSpec::is_escrow_capable) {
                return Err(Error::Schema(format!(
                    "derived view '{name}': parent '{parent_name}' has MIN/MAX \
                     aggregates (non-linear, cannot cascade)"
                )));
            }
            let pngroup = parent.group_types.len();
            for &c in &group_by {
                if c >= pngroup {
                    return Err(Error::Schema(format!(
                        "derived view '{name}': group column {c} outside the \
                         parent's group region (0..{pngroup})"
                    )));
                }
            }
            for spec in &aggs {
                if !spec.is_escrow_capable() {
                    return Err(Error::Schema(format!(
                        "derived view '{name}': MIN/MAX is unsupported on derived views"
                    )));
                }
                let col = spec.col();
                if col == pngroup {
                    if !matches!(spec, AggSpec::SumInt { .. }) {
                        return Err(Error::Schema(format!(
                            "derived view '{name}': the parent COUNT_BIG column \
                             must be summed as SumInt"
                        )));
                    }
                } else if col > pngroup && col < pngroup + 1 + parent.aggs.len() {
                    // AVG stores its running SUM (COUNT_BIG is the divisor),
                    // so an Avg column composes wherever a same-typed Sum
                    // does — the projection only ever adds stored sums.
                    let int_like = |s: &AggSpec| {
                        matches!(s, AggSpec::SumInt { .. } | AggSpec::Avg { float: false, .. })
                    };
                    let float_like = |s: &AggSpec| {
                        matches!(s, AggSpec::SumFloat { .. } | AggSpec::Avg { float: true, .. })
                    };
                    let parent_spec = &parent.aggs[col - pngroup - 1];
                    let ok = (int_like(spec) && int_like(parent_spec))
                        || (float_like(spec) && float_like(parent_spec));
                    if !ok {
                        return Err(Error::Schema(format!(
                            "derived view '{name}': aggregate column {col} type \
                             mismatch with the parent aggregate"
                        )));
                    }
                } else {
                    return Err(Error::Schema(format!(
                        "derived view '{name}': aggregate column {col} outside \
                         the parent's stored aggregate region"
                    )));
                }
            }
            let group_types: Vec<ValueType> = if group_by.is_empty() {
                vec![ValueType::Int] // synthetic constant Int(0) group
            } else {
                group_by.iter().map(|&c| parent.group_types[c]).collect()
            };
            let id = cat.alloc_view();
            let object = cat.alloc_object();
            let index = cat.alloc_index();
            let tree = Tree::create(&self.pool, &self.log, index)?;
            let root = tree.root();
            self.trees.write().insert(index, Arc::new(tree));
            let def = ViewDef {
                id,
                object,
                name: name.to_string(),
                source: ViewSource::Derived { parent: parent.id, group_by },
                aggs,
                filter: crate::catalog::Predicate::True,
                maintenance,
                deferred: false,
                eager_group_delete: false,
                index,
                root,
                group_types,
            };
            cat.add_view(def.clone())?;
            def
        };
        let parent_id = match &def.source {
            ViewSource::Derived { parent, .. } => *parent,
            _ => unreachable!("just built as Derived"),
        };
        self.graph.write().register_derived(def.id, parent_id)?;
        // Populate from the parent's current contents (recomputed from
        // base, so a stale parent can never seed a fresh child).
        let rows = self.compute_view_from_base(&def)?;
        if !rows.is_empty() {
            let mut txn = self.begin(IsolationLevel::ReadCommitted);
            let tree = self.tree(def.index)?;
            for (group, (count, aggs)) in rows {
                let key = Key::from_values(&group);
                let bytes = encode_view_row(&group, count, &aggs)?;
                let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                tree.insert(&key, &bytes, &mut ctx, &OpLog::Update { undo: UndoOp::None })?;
            }
            self.txns.commit(&mut txn)?;
        }
        self.checkpoint()?;
        self.persist_catalog()?;
        Ok(def.id)
    }

    /// Registered depth of a view in the dependency DAG (0 = base view).
    pub fn view_depth(&self, view_name: &str) -> Result<u32> {
        let id = self.catalog.read().view(view_name)?.id;
        self.graph
            .read()
            .depth(id)
            .ok_or_else(|| Error::NotFound(format!("view '{view_name}' not in the graph")))
    }

    /// Ablation toggle: `true` propagates every parent delta to children
    /// immediately (one refresh per DML — the naive baseline the DAG
    /// proptest compares against); `false` (default) coalesces per (view,
    /// group, txn) and flushes once at commit.
    pub fn set_cascade_eager(&self, eager: bool) {
        self.cascade_eager.store(eager, Ordering::Relaxed);
    }

    /// Arm the cascade trace: subsequent refreshes record
    /// `(txn, view, group-key)` until [`Database::take_cascade_trace`].
    pub fn enable_cascade_trace(&self) {
        *self.cascade_trace.lock() = Some(Vec::new());
    }

    /// Drain the armed cascade trace (empty if never armed).
    pub fn take_cascade_trace(&self) -> Vec<(TxnId, ViewId, Vec<u8>)> {
        self.cascade_trace.lock().as_mut().map(std::mem::take).unwrap_or_default()
    }

    // ---- transactions ----------------------------------------------------

    /// Begin a user transaction. Snapshot transactions get their snapshot
    /// point from the commit watermark (every commit at or below it has
    /// fully published its versions).
    pub fn begin(&self, isolation: IsolationLevel) -> Transaction {
        let mut txn = self.txns.begin(isolation);
        if isolation == IsolationLevel::Snapshot {
            txn.snapshot_lsn = self.watermark.begin_snapshot(&self.log);
        }
        txn
    }

    /// Deregister a finished snapshot transaction.
    fn release_snapshot(&self, txn: &Transaction) {
        if txn.isolation == IsolationLevel::Snapshot {
            self.watermark.end_snapshot(txn.snapshot_lsn);
        }
    }

    /// Commit: publishes multiversion entries of touched view rows (while
    /// locks are still held), forces the commit record, releases locks.
    ///
    /// Write transactions force the log (durability of the ack); pure
    /// readers commit no-force — they have nothing to redo, so skipping
    /// the flush is sound *and* lets reads finish while the engine is
    /// degraded to read-only (the write path may be dead).
    pub fn commit(&self, txn: &mut Transaction) -> Result<Lsn> {
        if self.health.state() == HealthState::Fenced {
            return Err(Error::Fenced { reason: self.health.reason() });
        }
        let ticket = self.watermark.begin_commit(&self.log);
        let tid = txn.id;
        // Touched rows move out in the pre-append hook (after the cascade
        // flush, which itself *adds* touches) and are read back in the
        // pre-release hook; the RefCell bridges the two closures.
        let touched_cell: std::cell::RefCell<TouchedRows> = std::cell::RefCell::new(HashMap::new());
        let result = self.txns.commit_with_hooks(
            txn,
            |txn| {
                // Flush coalesced derived-view deltas in dependency order
                // *before* the commit record: the cascade's log records sit
                // ahead of the Commit, so recovery and replication replay
                // see them as ordinary redo.
                self.flush_cascades(txn)?;
                let touched = self.touched.remove(&txn.id).unwrap_or_default();
                // Force is computed after the flush so cascade work
                // upgrades an otherwise no-force commit.
                let force = txn.undo_len() > 0 || !touched.is_empty();
                *touched_cell.borrow_mut() = touched;
                Ok(force)
            },
            |commit_lsn| {
            let touched = touched_cell.take();
            self.watermark.set_lsn(ticket, commit_lsn);
            // Interleaving-explorer yield: the latch-free version-store
            // publish is a scheduling point (locks still held, commit
            // record already appended).
            if !touched.is_empty() {
                if let Some(h) = self.locks.hook() {
                    h.yield_point(tid, &txview_lock::SchedEvent::VersionPublish);
                }
            }
            let cat = self.catalog.read();
            // One horizon for the whole commit: it only ever rises, so an
            // earlier reading folds less, never too much.
            let horizon = self.watermark.fold_horizon(&self.log);
            // Each touched view is looked up once, not once per row.
            let mut views: Vec<&ViewDef> = Vec::new();
            for ((index, kb), touch) in touched {
                let view = match views.iter().find(|v| v.index == index) {
                    Some(view) => *view,
                    None => {
                        let view = cat
                            .views()
                            .find(|v| v.index == index)
                            .ok_or_else(|| Error::NotFound(format!("view for index {}", index.0)))?;
                        views.push(view);
                        view
                    }
                };
                let mat = |image, pairs: &[_]| materialize_view_row(view, &kb, image, pairs);
                match touch {
                    Touch::Additive(pairs) => {
                        self.versions.publish_delta(index, &kb, commit_lsn, pairs, horizon, &mat)?;
                    }
                    Touch::Exclusive => {
                        let value = match self.tree(index)?.get(&Key::from_bytes(kb.clone()))? {
                            Some((false, v)) => Some(v),
                            _ => None,
                        };
                        self.versions.publish_full(index, &kb, commit_lsn, value, horizon, &mat)?;
                    }
                }
            }
            Ok(())
            },
        );
        self.watermark.end_commit(ticket);
        if result.is_ok() {
            self.release_snapshot(txn);
        }
        self.note_commit_result(result, "commit flush")
    }

    /// Roll back completely (logical undo through the engine, CLRs logged).
    pub fn rollback(&self, txn: &mut Transaction) -> Result<()> {
        self.touched.remove(&txn.id);
        // Pending cascade work dies with the transaction: nothing was
        // applied, so there is nothing to undo. (Removed *before* the undo
        // walk so per-op retraction finds an empty queue and no-ops.)
        self.cascades.remove(&txn.id);
        let result = self.txns.rollback(txn, self);
        if result.is_ok() {
            self.release_snapshot(txn);
        }
        result
    }

    /// Savepoint token for [`Database::rollback_to_savepoint`].
    pub fn savepoint(&self, txn: &Transaction) -> usize {
        txn.savepoint()
    }

    /// Partial rollback to a savepoint.
    pub fn rollback_to_savepoint(&self, txn: &mut Transaction, sp: usize) -> Result<()> {
        self.txns.rollback_to_savepoint(txn, sp, self)
    }

    /// Run `body` in a fresh transaction, committing on success and rolling
    /// back + retrying (up to `retries`) on deadlock/timeout/degradation.
    pub fn run_txn<R>(
        &self,
        isolation: IsolationLevel,
        retries: usize,
        body: impl FnMut(&mut Transaction) -> Result<R>,
    ) -> Result<R> {
        self.run_txn_traced(isolation, retries, body).map(|(r, _)| r)
    }

    /// [`Database::run_txn`] with attempt telemetry: also returns how many
    /// transactions were started (1 = first try succeeded). Between
    /// attempts it sleeps the deterministic backoff configured with
    /// [`Database::set_txn_backoff`] (default: none — tight retry).
    pub fn run_txn_traced<R>(
        &self,
        isolation: IsolationLevel,
        retries: usize,
        mut body: impl FnMut(&mut Transaction) -> Result<R>,
    ) -> Result<(R, usize)> {
        let backoff = *self.txn_backoff.lock();
        let mut attempt = 0;
        loop {
            self.txn_attempts.fetch_add(1, Ordering::Relaxed);
            let mut txn = self.begin(isolation);
            match body(&mut txn).and_then(|r| self.commit(&mut txn).map(|_| r)) {
                Ok(r) => return Ok((r, attempt + 1)),
                Err(e) if e.is_retryable() && attempt < retries => {
                    if txn.is_active() {
                        self.rollback(&mut txn)?;
                    }
                    attempt += 1;
                    self.txn_retries.fetch_add(1, Ordering::Relaxed);
                    let delay = backoff.delay_micros(attempt as u32);
                    if delay > 0 {
                        self.txn_backoff_micros.fetch_add(delay, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(delay));
                    }
                }
                Err(e) => {
                    if txn.is_active() {
                        self.rollback(&mut txn)?;
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Write a fuzzy checkpoint. Checkpoint failures are classified like
    /// commit failures: I/O exhaustion degrades, corruption fences.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let result = self.log.checkpoint(&self.pool);
        self.note_commit_result(result, "checkpoint")
    }

    // ---- DML ---------------------------------------------------------

    /// Acquire a base-table lock, charging the wait to the transaction's
    /// *acquire* phase. View-side locks taken inside `maintain` are charged
    /// to the *maintain* phase instead (they are part of maintenance cost).
    fn acquire_phased(&self, txn: &mut Transaction, name: LockName, mode: LockMode) -> Result<()> {
        let t0 = self.obs.clock.now();
        let out = self.locks.acquire(txn.id, name, mode);
        txn.phase_acquire_us += self.obs.clock.now().saturating_sub(t0);
        out
    }

    /// Run both maintenance passes, charging them to the *maintain* phase.
    fn maintain_phased(
        &self,
        txn: &mut Transaction,
        def: &TableDef,
        views: &[ViewDef],
        new: Option<&Row>,
        old: Option<&Row>,
    ) -> Result<()> {
        let t0 = self.obs.clock.now();
        let out = self
            .maintain_secondary(txn, def, new, old)
            .and_then(|()| self.maintain(txn, def, views, new, old));
        txn.phase_maintain_us += self.obs.clock.now().saturating_sub(t0);
        out
    }

    /// Insert a row.
    pub fn insert(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<()> {
        self.health.check_writable()?;
        let result = self.insert_inner(txn, table, row);
        self.note_write_result(result, "insert")
    }

    fn insert_inner(&self, txn: &mut Transaction, table: &str, row: Row) -> Result<()> {
        let (def, views) = self.table_and_views(table)?;
        def.schema.validate(&row)?;
        let key = Key::from_values(&def.schema.pk_values(&row));
        let tree = self.tree(def.index)?;
        self.acquire_phased(txn, LockName::Object(def.id), LockMode::IX)?;
        self.acquire_phased(txn, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        let ghost_image = match tree.get(&key)? {
            Some((false, _)) => return Err(Error::DuplicateKey(format!("{key:?} in '{table}'"))),
            Some((true, old)) => Some(old),
            None => None,
        };
        // Instant-duration gap lock: no serializable reader may have the
        // target range locked.
        let gap = self.gap_after(&tree, def.index, &key)?;
        self.acquire_phased(txn, gap.clone(), LockMode::X)?;
        let bytes = row.to_bytes();
        if let Some(old) = ghost_image {
            // Revive a ghost: two undoable steps, so rollback restores BOTH
            // the old record image and the ghost flag (a plain "re-ghost"
            // undo would leak the new value into a later resurrection).
            let prev = txn.last_lsn;
            let undo_val = UndoOp::IndexUpdate {
                index: def.index,
                key: key.as_bytes().to_vec(),
                old_row: old,
            };
            {
                let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                tree.update_value(&key, &bytes, &mut ctx, &OpLog::Update { undo: undo_val.clone() })?;
            }
            txn.push_undo(undo_val, prev);
            let prev = txn.last_lsn;
            let undo_flag = UndoOp::IndexInsert { index: def.index, key: key.as_bytes().to_vec() };
            {
                let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                tree.set_ghost(&key, false, &mut ctx, &OpLog::Update { undo: undo_flag.clone() })?;
            }
            txn.push_undo(undo_flag, prev);
        } else {
            let prev = txn.last_lsn;
            let undo = UndoOp::IndexInsert { index: def.index, key: key.as_bytes().to_vec() };
            {
                let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                tree.insert(&key, &bytes, &mut ctx, &OpLog::Update { undo: undo.clone() })?;
            }
            txn.push_undo(undo, prev);
        }
        self.locks.release(txn.id, &gap);
        self.maintain_phased(txn, &def, &views, Some(&row), None)?;
        Ok(())
    }

    /// Delete a row by primary key (logical delete: ghost + cleanup later).
    pub fn delete(&self, txn: &mut Transaction, table: &str, pk: &[Value]) -> Result<()> {
        self.health.check_writable()?;
        let result = self.delete_inner(txn, table, pk);
        self.note_write_result(result, "delete")
    }

    fn delete_inner(&self, txn: &mut Transaction, table: &str, pk: &[Value]) -> Result<()> {
        let (def, views) = self.table_and_views(table)?;
        let key = Key::from_values(pk);
        let tree = self.tree(def.index)?;
        self.acquire_phased(txn, LockName::Object(def.id), LockMode::IX)?;
        self.acquire_phased(txn, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        let row = match tree.get(&key)? {
            Some((false, value)) => Row::from_bytes(&value)?,
            _ => return Err(Error::NotFound(format!("{key:?} in '{table}'"))),
        };
        let prev = txn.last_lsn;
        let undo = UndoOp::IndexDelete {
            index: def.index,
            key: key.as_bytes().to_vec(),
            row: row.to_bytes(),
        };
        {
            let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
            tree.set_ghost(&key, true, &mut ctx, &OpLog::Update { undo: undo.clone() })?;
        }
        txn.push_undo(undo, prev);
        self.enqueue_ghost(def.index, key.as_bytes().to_vec());
        self.maintain_phased(txn, &def, &views, None, Some(&row))?;
        Ok(())
    }

    /// Update a row in place (primary key must be unchanged).
    pub fn update(&self, txn: &mut Transaction, table: &str, new_row: Row) -> Result<()> {
        self.health.check_writable()?;
        let result = self.update_inner(txn, table, new_row);
        self.note_write_result(result, "update")
    }

    fn update_inner(&self, txn: &mut Transaction, table: &str, new_row: Row) -> Result<()> {
        let (def, views) = self.table_and_views(table)?;
        def.schema.validate(&new_row)?;
        let key = Key::from_values(&def.schema.pk_values(&new_row));
        let tree = self.tree(def.index)?;
        self.acquire_phased(txn, LockName::Object(def.id), LockMode::IX)?;
        self.acquire_phased(txn, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        let old_row = match tree.get(&key)? {
            Some((false, value)) => Row::from_bytes(&value)?,
            _ => return Err(Error::NotFound(format!("{key:?} in '{table}'"))),
        };
        let prev = txn.last_lsn;
        let undo = UndoOp::IndexUpdate {
            index: def.index,
            key: key.as_bytes().to_vec(),
            old_row: old_row.to_bytes(),
        };
        {
            let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
            tree.update_value(&key, &new_row.to_bytes(), &mut ctx, &OpLog::Update { undo: undo.clone() })?;
        }
        txn.push_undo(undo, prev);
        self.maintain_phased(txn, &def, &views, Some(&new_row), Some(&old_row))?;
        Ok(())
    }

    /// Atomic read-modify-write of one row: X-locks the key, reads the
    /// current row, applies `f`, and updates. This is how transactional
    /// workloads avoid lost updates (read-committed `get_row` + `update`
    /// would release the read lock in between).
    pub fn update_with(
        &self,
        txn: &mut Transaction,
        table: &str,
        pk: &[Value],
        f: impl FnOnce(&Row) -> Row,
    ) -> Result<()> {
        self.health.check_writable()?;
        let def = self.catalog.read().table(table)?.clone();
        let key = Key::from_values(pk);
        let tree = self.tree(def.index)?;
        self.acquire_phased(txn, LockName::Object(def.id), LockMode::IX)?;
        self.acquire_phased(txn, LockName::key(def.index, key.as_bytes()), LockMode::X)?;
        let old_row = match tree.get(&key)? {
            Some((false, value)) => Row::from_bytes(&value)?,
            _ => return Err(Error::NotFound(format!("{key:?} in '{table}'"))),
        };
        let new_row = f(&old_row);
        if self.catalog.read().table(table)?.schema.pk_values(&new_row) != pk {
            return Err(Error::invalid("update_with must not change the primary key"));
        }
        self.update(txn, table, new_row)
    }

    fn table_and_views(&self, table: &str) -> Result<(TableDef, Vec<ViewDef>)> {
        let cat = self.catalog.read();
        let def = cat.table(table)?.clone();
        if !cat.views_with_dim(def.id).is_empty() {
            // Keeping dim-side DML simple: the join-delta probe assumes a
            // stable dimension (see DESIGN.md).
            return Err(Error::invalid(format!(
                "table '{table}' is the dimension of a join view; its DML is frozen"
            )));
        }
        let views = cat.views_on(def.id).into_iter().cloned().collect();
        Ok((def, views))
    }

    /// Lock name of the gap the key would be inserted into.
    pub(crate) fn gap_after(&self, tree: &Tree, index: IndexId, key: &Key) -> Result<LockName> {
        Ok(match tree.next_geq(&key.successor())? {
            Some((next, _)) => LockName::gap(index, next),
            None => LockName::EndGap(index),
        })
    }

    // ---- view maintenance --------------------------------------------

    /// Maintain all `views` for a DML that inserted `new` and/or removed
    /// `old` (update = both).
    fn maintain(
        &self,
        txn: &mut Transaction,
        base: &TableDef,
        views: &[ViewDef],
        new: Option<&Row>,
        old: Option<&Row>,
    ) -> Result<()> {
        for view in views {
            let deltas: Vec<RowDelta> = match &view.source {
                ViewSource::Single { .. } => match (old, new) {
                    (Some(o), Some(n)) => update_deltas(view, o, n)?,
                    (Some(o), None) => single_table_delta(view, o, -1)?.into_iter().collect(),
                    (None, Some(n)) => single_table_delta(view, n, 1)?.into_iter().collect(),
                    (None, None) => vec![],
                },
                ViewSource::Join { dim, fact_fk_col, dim_group_by, .. } => {
                    let mut out = Vec::new();
                    for (row, sign) in [(old, -1i64), (new, 1i64)] {
                        if let Some(r) = row {
                            if let Some(group) =
                                self.probe_dim_group(txn, *dim, *fact_fk_col, dim_group_by, r)?
                            {
                                out.extend(join_delta(view, r, group, sign)?);
                            }
                        }
                    }
                    out
                }
                ViewSource::Derived { .. } => {
                    // `views_on` never returns derived views; they are
                    // maintained only through the cascade queue.
                    return Err(Error::invalid(format!(
                        "derived view '{}' cannot be maintained by base DML",
                        view.name
                    )));
                }
            };
            if view.deferred {
                // Staleness = unapplied view-row deltas, not DML statements:
                // a filtered-out row contributes 0, a group-moving update 2.
                let pending = deltas.iter().filter(|d| !d.is_noop()).count() as u64;
                if pending > 0 {
                    *self.deferred_pending.lock().entry(view.id).or_insert(0) += pending;
                }
                continue;
            }
            // A same-group update on a MIN/MAX view arrives as a
            // (delete, insert) pair. The base row is rewritten before
            // maintenance runs, so if the delete half retires an extremum
            // and recomputes the group from base, the recomputation already
            // includes the *new* value — applying the insert half on top
            // would double-count it.
            let paired_update =
                deltas.len() == 2 && deltas[0].group == deltas[1].group && deltas[0].count < 0;
            for (i, delta) in deltas.iter().enumerate() {
                let recomputed = self.apply_delta(txn, view, Some(base), delta)?;
                if recomputed && paired_update && i == 0 {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Resolve a fact row's group values by probing the dimension table
    /// (short S lock on the dim row: it must not move under us).
    fn probe_dim_group(
        &self,
        txn: &mut Transaction,
        dim: ObjectId,
        fact_fk_col: usize,
        dim_group_by: &[usize],
        fact_row: &Row,
    ) -> Result<Option<Vec<Value>>> {
        let cat = self.catalog.read();
        let d = cat.table_by_id(dim)?.clone();
        drop(cat);
        let fk = fact_row.get(fact_fk_col).clone();
        let key = Key::from_values(std::slice::from_ref(&fk));
        let name = LockName::key(d.index, key.as_bytes());
        self.locks.acquire(txn.id, name.clone(), LockMode::S)?;
        let tree = self.tree(d.index)?;
        let out = match tree.get(&key)? {
            Some((false, value)) => {
                let row = Row::from_bytes(&value)?;
                Some(dim_group_by.iter().map(|&c| row.get(c).clone()).collect())
            }
            _ => None, // inner-join semantics: unmatched fact rows drop out
        };
        self.locks.release(txn.id, &name);
        Ok(out)
    }

    /// Apply one [`RowDelta`] to a view — the heart of the protocol.
    /// `base` is `None` for derived views (cascade applies): they are
    /// all-SUM by construction, so the MIN/MAX recompute path that needs
    /// the base table is unreachable.
    ///
    /// Returns `true` iff the MIN/MAX fallback recomputed the whole group
    /// from the base table (callers pairing an update's delete/insert
    /// halves must then drop the insert half — the recomputation already
    /// reflects the rewritten base row).
    fn apply_delta(
        &self,
        txn: &mut Transaction,
        view: &ViewDef,
        base: Option<&TableDef>,
        delta: &RowDelta,
    ) -> Result<bool> {
        if delta.is_noop() {
            return Ok(false);
        }
        let key = delta.key();
        let kb = key.as_bytes().to_vec();
        let tree = self.tree(view.index)?;
        self.locks.acquire(txn.id, LockName::Object(view.object), LockMode::IX)?;
        let all_sums = view.aggs.iter().all(AggSpec::is_escrow_capable);

        // Gap lock taken when this transaction materializes a new group row
        // (insert-intention: conflicts with serializable range readers).
        let mut pending_gap: Option<LockName> = None;
        loop {
            let exists = tree.get(&key)?.is_some();
            if !exists {
                if delta.count < 0 {
                    return Err(Error::corruption(format!(
                        "negative delta for missing group {key:?} in view '{}'",
                        view.name
                    )));
                }
                // The paper's trick: the new group row is created *invisible*
                // (COUNT_BIG = 0) by a system transaction that commits and
                // releases immediately — the user transaction then only ever
                // needs an E lock, so concurrent transactions can pile onto
                // a group one of them just created.
                self.ensure_group_row(view, &tree, &key, &delta.group)?;
                self.versions.ensure_base(view.index, &kb, None);
                if pending_gap.is_none() {
                    let gap = self.gap_after(&tree, view.index, &key)?;
                    self.locks.acquire(txn.id, gap.clone(), LockMode::X)?;
                    pending_gap = Some(gap);
                }
                continue;
            }
            let mode = if view.is_escrow() && all_sums { LockMode::E } else { LockMode::X };
            let row_name = LockName::key(view.index, kb.clone());
            self.locks.acquire(txn.id, row_name, mode)?;
            // Re-check under the lock (ghost cleanup may have removed it).
            let current = tree.get(&key)?;
            let Some((_, cur_value)) = current else { continue };
            self.safeguard_base_version(view, &tree, &key, &kb)?;
            let mut recomputed = false;
            if all_sums {
                self.apply_additive_delta(txn, view, &tree, &key, delta)?;
                self.note_additive(txn.id, view.index, &kb, &delta.to_undo_pairs())?;
                self.obs.escrow_applies.inc();
            } else {
                let base = base.ok_or_else(|| {
                    Error::invalid(format!(
                        "MIN/MAX maintenance of '{}' needs a base table",
                        view.name
                    ))
                })?;
                recomputed =
                    self.apply_minmax_delta(txn, view, base, &tree, &key, &cur_value, delta)?;
                self.note_exclusive(txn.id, view.index, &kb);
                self.obs.minmax_rewrites.inc();
            }
            if let Some(gap) = pending_gap {
                self.locks.release(txn.id, &gap);
            }
            // Propagate to children: project this delta onto each derived
            // view and enqueue (coalescing) or, in eager mode, apply now.
            // (MIN/MAX views cannot have children — derived DDL requires an
            // all-SUM parent — so a recomputed group never skips a child.)
            self.cascade_children(txn, view, delta)?;
            return Ok(recomputed);
        }
    }

    /// Project an applied delta onto the view's children. Coalesced mode
    /// enqueues into the transaction's cascade queue (merged per
    /// `(view, group)`, drained at commit); eager mode recurses through
    /// [`Database::apply_delta`] immediately — the naive baseline.
    fn cascade_children(
        &self,
        txn: &mut Transaction,
        view: &ViewDef,
        delta: &RowDelta,
    ) -> Result<()> {
        let children: Vec<ViewId> = {
            let g = self.graph.read();
            g.children(view.id).to_vec()
        };
        if children.is_empty() {
            return Ok(());
        }
        let eager = self.cascade_eager.load(Ordering::Relaxed);
        for child_id in children {
            let child = self.catalog.read().view_by_id(child_id)?.clone();
            let projected = derived_delta(&child, view, delta)?;
            if projected.is_noop() {
                continue;
            }
            if eager {
                self.apply_delta(txn, &child, None, &projected)?;
                self.obs.cascade_refreshes.inc();
                if let Some(trace) = self.cascade_trace.lock().as_mut() {
                    trace.push((txn.id, child_id, projected.key().as_bytes().to_vec()));
                }
                continue;
            }
            let depth = self
                .graph
                .read()
                .depth(child_id)
                .ok_or_else(|| Error::NotFound(format!("view {} not in graph", child_id.0)))?;
            let kb = projected.key().as_bytes().to_vec();
            let pending = PendingDelta {
                group: projected.group.clone(),
                count: projected.count,
                aggs: projected.aggs.clone(),
            };
            let outcome = self
                .cascades
                .with_entry(txn.id, |q| q.enqueue(depth, child_id, kb, pending))?;
            self.obs.cascade_enqueues.inc();
            if outcome == txview_view::EnqueueOutcome::Coalesced {
                self.obs.cascade_coalesce_hits.inc();
            }
        }
        Ok(())
    }

    /// Drain the transaction's cascade queue in dependency order: ascending
    /// `(depth, view, group)` — applying a level-*d* entry enqueues its own
    /// children at depth > *d*, which this same drain consumes. Runs in the
    /// pre-append commit hook, so every cascade log record precedes the
    /// commit record (ordinary redo for recovery and replication).
    fn flush_cascades(&self, txn: &mut Transaction) -> Result<()> {
        let entries = self.cascades.update(&txn.id, |slot| {
            slot.map(|q| q.len()).unwrap_or(0)
        });
        if entries == 0 {
            return Ok(());
        }
        // Yield point, guarded on a non-empty queue so cascade-free
        // scenarios keep their exact schedule counts.
        if let Some(h) = self.locks.hook() {
            h.yield_point(
                txn.id,
                &txview_lock::SchedEvent::CascadeFlush { entries: entries as u64 },
            );
        }
        let mut refreshed = 0u64;
        let mut last_depth: Option<u32> = None;
        loop {
            // Pop through the live map entry (not a drained snapshot):
            // applying an entry re-enters `cascade_children`, which must
            // land grandchildren in this same queue.
            let popped = self.cascades.update(&txn.id, |slot| {
                slot.and_then(|q| q.pop_first())
            });
            let Some((depth, view_id, kb, pending)) = popped else { break };
            if last_depth.is_some_and(|d| depth > d) {
                // Named crash point between DAG levels: the torture
                // probe sweep crashes here to prove mid-cascade atomicity.
                self.log.probe_point("view.cascade.level");
            }
            last_depth = Some(depth);
            if pending.is_noop() {
                continue; // retracted down to nothing by a savepoint undo
            }
            let view = self.catalog.read().view_by_id(view_id)?.clone();
            let delta =
                RowDelta { group: pending.group, count: pending.count, aggs: pending.aggs };
            self.apply_delta(txn, &view, None, &delta)?;
            self.obs.cascade_refreshes.inc();
            refreshed += 1;
            if let Some(trace) = self.cascade_trace.lock().as_mut() {
                trace.push((txn.id, view_id, kb));
            }
        }
        self.cascades.remove(&txn.id);
        self.obs.cascade_flush_entries.record(refreshed);
        if let Some(d) = last_depth {
            self.obs.cascade_flush_depth.record(u64::from(d));
        }
        Ok(())
    }

    /// Materialize an invisible (COUNT_BIG = 0) group row in a system
    /// transaction. Losing a creation race to another transaction is fine.
    fn ensure_group_row(&self, view: &ViewDef, tree: &Tree, key: &Key, group: &[Value]) -> Result<()> {
        let bytes = encode_view_row(group, 0, &escrow::zero_aggs(view))?;
        match self.txns.system(|id, last| {
            let mut ctx = LogCtx { log: &self.log, txn: id, last_lsn: last };
            tree.insert(key, &bytes, &mut ctx, &OpLog::System)
        }) {
            Ok(()) => {
                self.obs.group_creates.inc();
                Ok(())
            }
            Err(Error::DuplicateKey(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Record the pre-image version the first time any transaction touches
    /// a view row (so snapshot readers never see in-flight increments).
    /// The read happens inside the version store's critical section: a
    /// concurrent escrow holder that raced past its own safeguard cannot
    /// have modified the row yet, so the captured image is committed-clean.
    fn safeguard_base_version(&self, view: &ViewDef, tree: &Tree, key: &Key, kb: &[u8]) -> Result<()> {
        self.versions.ensure_base_with(view.index, kb, || {
            match tree.get(key)? {
                Some((false, value)) if row_visible(view, &value)? => Ok(Some(value)),
                _ => Ok(None),
            }
        })
    }

    /// Accumulate this transaction's net commutative delta for a view row.
    fn note_additive(&self, txn: TxnId, index: IndexId, kb: &[u8], pairs: &[(u16, txview_wal::record::ValueDelta)]) -> Result<()> {
        self.touched.with_entry(txn, |rows| {
            let entry = rows
                .entry((index, kb.to_vec()))
                .or_insert_with(|| Touch::Additive(Vec::new()));
            match entry {
                Touch::Additive(acc) => escrow::merge_pairs(acc, pairs),
                Touch::Exclusive => Ok(()), // exclusive image already covers it
            }
        })
    }

    /// Mark a view row as exclusively rewritten by this transaction.
    fn note_exclusive(&self, txn: TxnId, index: IndexId, kb: &[u8]) {
        self.touched.with_entry(txn, |rows| {
            rows.insert((index, kb.to_vec()), Touch::Exclusive);
        });
    }

    /// Escrow-capable path: in-place commutative region patch.
    fn apply_additive_delta(
        &self,
        txn: &mut Transaction,
        view: &ViewDef,
        tree: &Tree,
        key: &Key,
        delta: &RowDelta,
    ) -> Result<()> {
        let region_off = agg_region_offset(&delta.group);
        let prev = txn.last_lsn;
        let undo = UndoOp::Escrow {
            index: view.index,
            key: key.as_bytes().to_vec(),
            deltas: delta.to_undo_pairs(),
        };
        let mut new_count = 0i64;
        {
            let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
            tree.modify_value_region(
                key,
                region_off,
                |old| {
                    let out = apply_additive(old, view, delta)?;
                    new_count = escrow::decode_agg_region(&out, view.aggs.len())?.0;
                    Ok(out)
                },
                &mut ctx,
                &OpLog::Update { undo: undo.clone() },
            )?;
        }
        txn.push_undo(undo, prev);
        if new_count == 0 {
            if view.eager_group_delete {
                self.eager_delete_group(txn, view, tree, key)?;
            } else {
                self.enqueue_ghost(view.index, key.as_bytes().to_vec());
            }
        }
        Ok(())
    }

    /// E7 ablation: delete an emptied group row inside the user transaction.
    /// Requires converting the row lock to X — the source of the deadlocks
    /// this experiment measures — and re-checking the count under it.
    fn eager_delete_group(&self, txn: &mut Transaction, view: &ViewDef, tree: &Tree, key: &Key) -> Result<()> {
        let kb = key.as_bytes().to_vec();
        let row_name = LockName::key(view.index, kb.clone());
        self.locks.acquire(txn.id, row_name, LockMode::X)?;
        let Some((_, value)) = tree.get(key)? else { return Ok(()) };
        if row_visible(view, &value)? {
            return Ok(()); // somebody legitimately resurrected it before our X
        }
        let prev = txn.last_lsn;
        let undo = UndoOp::IndexDelete { index: view.index, key: kb, row: value };
        {
            let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
            tree.remove_record(key, &mut ctx, &OpLog::Update { undo: undo.clone() })?;
        }
        txn.push_undo(undo, prev);
        self.note_exclusive(txn.id, view.index, key.as_bytes());
        Ok(())
    }

    /// MIN/MAX (X-lock) path: full-row rewrite with physical-image undo;
    /// deletes that may retire the extremum recompute the group from base.
    #[allow(clippy::too_many_arguments)]
    fn apply_minmax_delta(
        &self,
        txn: &mut Transaction,
        view: &ViewDef,
        base: &TableDef,
        tree: &Tree,
        key: &Key,
        cur_value: &[u8],
        delta: &RowDelta,
    ) -> Result<bool> {
        let region_off = agg_region_offset(&delta.group);
        let mut recomputed = false;
        let new_value = if delta.count >= 0 {
            let mut out = cur_value.to_vec();
            let region = apply_insert_merge(&cur_value[region_off..], view, delta)?;
            out[region_off..].copy_from_slice(&region);
            out
        } else if !escrow::delete_retires_extremum(&cur_value[region_off..], view, delta)? {
            // Non-extremal delete: the departing value sits strictly inside
            // every stored MIN/MAX, so the extrema stand and the additive
            // aggregates fold in place under the row X lock already held —
            // no base-table access, same cost as the escrow path.
            let mut out = cur_value.to_vec();
            let region = escrow::apply_delete_keep_extrema(&cur_value[region_off..], view, delta)?;
            out[region_off..].copy_from_slice(&region);
            out
        } else {
            // The departing row equals a stored extremum: the paper's
            // fallback — recompute this one group from base under an S
            // object lock (serializes with writers; deadlocks are detected
            // and retried upstream). The crash probe sits between the lock
            // grant and the view-row rewrite, the window the crash matrix
            // exercises. A group that vanished from base stores the escrow
            // invariant (count 0, zero sums) so a later resurrection's
            // insert-merge starts from clean aggregates.
            self.locks.acquire(txn.id, LockName::Object(base.id), LockMode::S)?;
            self.log.probe_point("view.minmax.recompute");
            self.obs.minmax_recomputes.inc();
            recomputed = true;
            let (count, aggs) = match self.compute_group_from_base(view, base, &delta.group)? {
                Some(v) => v,
                None => (0, escrow::zero_aggs(view)),
            };
            encode_view_row(&delta.group, count, &aggs)?
        };
        let prev = txn.last_lsn;
        let undo = UndoOp::IndexUpdate {
            index: view.index,
            key: key.as_bytes().to_vec(),
            old_row: cur_value.to_vec(),
        };
        {
            let mut ctx = LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
            tree.update_value(key, &new_value, &mut ctx, &OpLog::Update { undo: undo.clone() })?;
        }
        txn.push_undo(undo, prev);
        let count = escrow::decode_agg_region(&new_value[region_off..], view.aggs.len())?.0;
        if count == 0 {
            self.enqueue_ghost(view.index, key.as_bytes().to_vec());
        }
        Ok(recomputed)
    }

    // ---- recompute / verify / deferred ---------------------------------

    /// Compute a view's contents from its base table(s) by direct scans
    /// (no locks — callers quiesce or hold object locks).
    #[allow(clippy::type_complexity)]
    pub fn compute_view_from_base(
        &self,
        view: &ViewDef,
    ) -> Result<HashMap<Vec<Value>, (i64, Vec<Value>)>> {
        let cat = self.catalog.read();
        let mut out: HashMap<Vec<Value>, (i64, Vec<Value>)> = HashMap::new();
        let mut add = |view: &ViewDef, group: Vec<Value>, row: &Row| -> Result<()> {
            if let Some(contrib) = crate::delta::row_contribution(view, row, 1)? {
                let delta = RowDelta { group, count: 1, aggs: contrib };
                match out.entry(delta.group.clone()) {
                    std::collections::hash_map::Entry::Occupied(mut e) => {
                        let (count, aggs) = e.get_mut();
                        let region = escrow::encode_agg_region(*count, aggs);
                        let merged = apply_insert_merge(&region, view, &delta)?;
                        let (c, a) = escrow::decode_agg_region(&merged, view.aggs.len())?;
                        *count = c;
                        *aggs = a;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert((1, initial_aggs(view, &delta)?));
                    }
                }
            }
            Ok(())
        };
        match &view.source {
            ViewSource::Derived { parent, .. } => {
                // Recurse through the parent (transitively down to base).
                // Clone the parent def and RELEASE the catalog guard first:
                // parking_lot read locks are not recursive under a waiting
                // writer, and the recursion re-reads the catalog.
                let p = cat.view_by_id(*parent)?.clone();
                drop(cat);
                let parent_rows = self.compute_view_from_base(&p)?;
                return fold_derived(view, &p, &parent_rows);
            }
            ViewSource::Single { table, group_by } => {
                let t = cat.table_by_id(*table)?;
                let tree = self.tree(t.index)?;
                let (items, _) = tree.scan(None, None, false)?;
                for item in items {
                    let row = Row::from_bytes(&item.value)?;
                    let group = group_by.iter().map(|&c| row.get(c).clone()).collect();
                    add(view, group, &row)?;
                }
            }
            ViewSource::Join { fact, dim, fact_fk_col, dim_group_by } => {
                let f = cat.table_by_id(*fact)?;
                let d = cat.table_by_id(*dim)?;
                let ftree = self.tree(f.index)?;
                let dtree = self.tree(d.index)?;
                let (items, _) = ftree.scan(None, None, false)?;
                for item in items {
                    let row = Row::from_bytes(&item.value)?;
                    let fk = row.get(*fact_fk_col).clone();
                    let dkey = Key::from_values(std::slice::from_ref(&fk));
                    if let Some((false, dval)) = dtree.get(&dkey)? {
                        let drow = Row::from_bytes(&dval)?;
                        let group = dim_group_by.iter().map(|&c| drow.get(c).clone()).collect();
                        add(view, group, &row)?;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Recompute one group's `(COUNT_BIG, aggregates)` from the base table
    /// — the MIN/MAX retirement fallback. Scoped to a single group so an
    /// extremal delete pays one base scan filtered to its own group, not a
    /// full view rebuild. `None` if no live base row maps to the group.
    /// Single-table sources only: MIN/MAX is rejected on join and derived
    /// views at DDL, so this path can never see them.
    fn compute_group_from_base(
        &self,
        view: &ViewDef,
        base: &TableDef,
        group: &[Value],
    ) -> Result<Option<(i64, Vec<Value>)>> {
        let ViewSource::Single { group_by, .. } = &view.source else {
            return Err(Error::invalid("group recompute on a non-single-table view"));
        };
        let tree = self.tree(base.index)?;
        let (items, _) = tree.scan(None, None, false)?;
        let mut acc: Option<(i64, Vec<Value>)> = None;
        for item in items {
            let row = Row::from_bytes(&item.value)?;
            if !group_by.iter().zip(group).all(|(&c, g)| row.get(c) == g) {
                continue;
            }
            let Some(contrib) = crate::delta::row_contribution(view, &row, 1)? else {
                continue; // filtered out
            };
            let delta = RowDelta { group: group.to_vec(), count: 1, aggs: contrib };
            acc = Some(match acc {
                None => (1, initial_aggs(view, &delta)?),
                Some((count, aggs)) => {
                    let region = escrow::encode_agg_region(count, &aggs);
                    let merged = apply_insert_merge(&region, view, &delta)?;
                    escrow::decode_agg_region(&merged, view.aggs.len())?
                }
            });
        }
        Ok(acc)
    }

    /// Verify that a view's stored rows exactly match a recomputation from
    /// base (the correctness spine of every experiment). For derived views
    /// this recomputes *transitively* down to the base tables. Quiesced
    /// only.
    pub fn verify_view(&self, view_name: &str) -> Result<()> {
        let view = self.catalog.read().view(view_name)?.clone();
        let expected = self.compute_view_from_base(&view)?;
        self.check_view_against(&view, view_name, &expected)
    }

    /// Verify a derived view against its **immediate parent's stored
    /// rows** (not a base recomputation): the one-level fold must match
    /// exactly. Combined with [`Database::verify_view`] on every level,
    /// this pins blame to a single propagation step when a chain diverges.
    /// Non-derived views fall back to the transitive check.
    pub fn verify_view_from_parent(&self, view_name: &str) -> Result<()> {
        let view = self.catalog.read().view(view_name)?.clone();
        let ViewSource::Derived { parent, .. } = &view.source else {
            return self.verify_view(view_name);
        };
        let p = self.catalog.read().view_by_id(*parent)?.clone();
        let parent_rows = self.scan_view_rows(&p)?;
        let expected = fold_derived(&view, &p, &parent_rows)?;
        self.check_view_against(&view, view_name, &expected)
    }

    /// Materialize a view's stored visible rows as `group → (count, aggs)`.
    #[allow(clippy::type_complexity)]
    fn scan_view_rows(&self, view: &ViewDef) -> Result<HashMap<Vec<Value>, (i64, Vec<Value>)>> {
        let tree = self.tree(view.index)?;
        let (items, _) = tree.scan(None, None, false)?;
        let mut out = HashMap::new();
        for item in items {
            let row = Row::from_bytes(&item.value)?;
            let ngroup = view.group_types.len();
            let group: Vec<Value> = (0..ngroup).map(|i| row.get(i).clone()).collect();
            let count = row.get(ngroup).as_int()?;
            if count == 0 {
                continue; // logically absent
            }
            let aggs: Vec<Value> =
                (0..view.aggs.len()).map(|i| row.get(ngroup + 1 + i).clone()).collect();
            out.insert(group, (count, aggs));
        }
        Ok(out)
    }

    /// Compare a view's stored rows against an expected recomputation.
    fn check_view_against(
        &self,
        view: &ViewDef,
        view_name: &str,
        expected: &HashMap<Vec<Value>, (i64, Vec<Value>)>,
    ) -> Result<()> {
        let tree = self.tree(view.index)?;
        let (items, _) = tree.scan(None, None, false)?;
        let mut seen = 0usize;
        for item in items {
            let row = Row::from_bytes(&item.value)?;
            let ngroup = view.group_types.len();
            let group: Vec<Value> = (0..ngroup).map(|i| row.get(i).clone()).collect();
            let count = row.get(ngroup).as_int()?;
            let aggs: Vec<Value> = (0..view.aggs.len()).map(|i| row.get(ngroup + 1 + i).clone()).collect();
            if count == 0 {
                continue; // logically absent
            }
            if count < 0 {
                return Err(Error::corruption(format!(
                    "view '{view_name}' group {group:?} has negative count {count}"
                )));
            }
            seen += 1;
            match expected.get(&group) {
                Some((ec, ea)) if *ec == count && *ea == aggs => {}
                Some((ec, ea)) => {
                    return Err(Error::corruption(format!(
                        "view '{view_name}' group {group:?}: stored ({count}, {aggs:?}) != expected ({ec}, {ea:?})"
                    )))
                }
                None => {
                    return Err(Error::corruption(format!(
                        "view '{view_name}' has spurious group {group:?}"
                    )))
                }
            }
        }
        if seen != expected.len() {
            return Err(Error::corruption(format!(
                "view '{view_name}' has {seen} visible groups, expected {}",
                expected.len()
            )));
        }
        Ok(())
    }

    /// Pending (unapplied) delta count of a deferred view.
    pub fn deferred_staleness(&self, view_name: &str) -> Result<u64> {
        let view = self.catalog.read().view(view_name)?.clone();
        Ok(*self.deferred_pending.lock().get(&view.id).unwrap_or(&0))
    }

    /// Rebuild a deferred view from base (bulk refresh). Quiesced only.
    ///
    /// Delete and rebuild run in *one* user transaction with logged
    /// logical undo, so a crash anywhere inside the refresh rolls the
    /// whole thing back — the view is never left empty-yet-"fresh" (the
    /// old code deleted in a separate committed system transaction first).
    /// The staleness counter is reset by subtracting the pre-refresh
    /// value, so increments that land during the rebuild are kept.
    pub fn refresh_deferred_view(&self, view_name: &str) -> Result<usize> {
        let view = self.catalog.read().view(view_name)?.clone();
        let tree = self.tree(view.index)?;
        let pre_refresh = *self.deferred_pending.lock().get(&view.id).unwrap_or(&0);
        let rows = self.compute_view_from_base(&view)?;
        let n = rows.len();
        let mut txn = self.begin(IsolationLevel::ReadCommitted);
        let result = (|| -> Result<()> {
            let (items, _) = tree.scan(None, None, true)?;
            for item in &items {
                let key = Key::from_bytes(item.key.clone());
                let prev = txn.last_lsn;
                let undo = UndoOp::IndexDelete {
                    index: view.index,
                    key: item.key.clone(),
                    row: item.value.clone(),
                };
                {
                    let mut ctx =
                        LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                    tree.remove_record(&key, &mut ctx, &OpLog::Update { undo: undo.clone() })?;
                }
                txn.push_undo(undo, prev);
            }
            for (group, (count, aggs)) in rows {
                let key = Key::from_values(&group);
                let bytes = encode_view_row(&group, count, &aggs)?;
                let prev = txn.last_lsn;
                let undo = UndoOp::IndexInsert { index: view.index, key: key.as_bytes().to_vec() };
                {
                    let mut ctx =
                        LogCtx { log: &self.log, txn: txn.id, last_lsn: &mut txn.last_lsn };
                    tree.insert(&key, &bytes, &mut ctx, &OpLog::Update { undo: undo.clone() })?;
                }
                txn.push_undo(undo, prev);
            }
            Ok(())
        })();
        if let Err(e) = result {
            let _ = self.rollback(&mut txn);
            return Err(e);
        }
        self.txns.commit(&mut txn)?;
        // Fetch-and-subtract, not zero: DML racing the rebuild keeps its
        // staleness contribution.
        let mut pending = self.deferred_pending.lock();
        let slot = pending.entry(view.id).or_insert(0);
        *slot = slot.saturating_sub(pre_refresh);
        Ok(n)
    }

    // ---- ghost cleanup ---------------------------------------------------

    /// One cleanup sweep: physically remove queued ghosts/zero-count rows
    /// whose keys can be X-locked instantly, each in its own system
    /// transaction.
    pub fn run_ghost_cleanup(&self) -> Result<GhostCleanupReport> {
        // Enqueue-time dedup guarantees the drained batch has no
        // duplicates already.
        let work = self.ghost_queue.drain();
        let mut report = GhostCleanupReport::default();
        for (index, kb) in work {
            let key = Key::from_bytes(kb.clone());
            let tree = self.tree(index)?;
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
                    match self.catalog.read().views().find(|v| v.index == index) {
                        Some(view) => !row_visible(view, &value)?,
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

    /// Number of entries waiting for ghost cleanup.
    pub fn ghost_backlog(&self) -> usize {
        self.ghost_queue.len()
    }

    /// Debug: dump the version chain of a view row (tests/diagnostics).
    #[doc(hidden)]
    pub fn debug_chain(&self, view_name: &str, group: &[Value]) -> Result<Vec<(u64, bool, Option<crate::versions::DeltaPairs>)>> {
        let view = self.catalog.read().view(view_name)?.clone();
        let key = Key::from_values(group);
        Ok(self.versions.debug_chain(view.index, key.as_bytes()))
    }

    /// Snapshot read of one view row at snapshot LSN `s`: reconstruct from
    /// the version chain, or read directly when the row was never modified.
    /// Returns the row iff the group is visible at `s`.
    pub(crate) fn snapshot_view_row(&self, view: &ViewDef, kb: &[u8], s: Lsn) -> Result<Option<Row>> {
        let mat = |image, pairs: &[_]| materialize_view_row(view, kb, image, pairs);
        let image = match self.versions.read_at(view.index, kb, s, &mat)? {
            Some(image) => image,
            None => {
                // No chain: the physical image should be stable — but a
                // writer may create the chain and modify the row between
                // our check and the read. Ask again afterwards; a chain
                // that appeared means the bytes we read may carry an
                // uncommitted delta, so the chain decides.
                let phys = match self.tree(view.index)?.get(&Key::from_bytes(kb.to_vec()))? {
                    Some((false, v)) => Some(v),
                    _ => None,
                };
                self.versions.read_at(view.index, kb, s, &mat)?.unwrap_or(phys)
            }
        };
        image.map_or(Ok(None), |bytes| visible_row(view, &bytes))
    }

    /// Snapshot scan of a view over keys in `[lo, hi)` at snapshot LSN `s`:
    /// the visible rows in key order.
    pub(crate) fn snapshot_view_rows(
        &self,
        view: &ViewDef,
        lo: Option<&Key>,
        hi: Option<&Key>,
        s: Lsn,
    ) -> Result<Vec<Row>> {
        let (items, _) = self.tree(view.index)?.scan(lo, hi, false)?;
        self.resolve_scanned(view, items, lo, hi, s)
    }

    /// Merge physical rows `items`, scanned from `[lo, hi)` of the view's
    /// tree *before this call*, with the version chains of that range. A
    /// key with a chain takes the chain's image at `s`; a key without one
    /// takes the scanned bytes. That order is what makes the second case
    /// safe: a writer seeds the chain before it first modifies a row and
    /// chains are never removed, so "no chain now" means nobody had touched
    /// the row when the scan, earlier still, read it — the single-key rule
    /// of [`Database::snapshot_view_row`], with the directory visit doubling
    /// as the re-check.
    pub(crate) fn resolve_scanned(
        &self,
        view: &ViewDef,
        items: Vec<txview_btree::ScanItem>,
        lo: Option<&Key>,
        hi: Option<&Key>,
        s: Lsn,
    ) -> Result<Vec<Row>> {
        let mat = |kb: &[u8], image, pairs: &[_]| materialize_view_row(view, kb, image, pairs);
        let chains =
            self.versions.range_at(view.index, lo.map(Key::as_bytes), hi.map(Key::as_bytes), s, &mat)?;
        let mut out = Vec::with_capacity(items.len().max(chains.len()));
        let mut push = |image: Option<Vec<u8>>| -> Result<()> {
            if let Some(bytes) = image {
                out.extend(visible_row(view, &bytes)?);
            }
            Ok(())
        };
        let mut chains = chains.into_iter().peekable();
        for item in items {
            // Chains sorting before the next physical row: rows that are
            // not (or no longer) in the tree.
            while let Some((_, image)) = chains.next_if(|(k, _)| *k < item.key) {
                push(image)?;
            }
            match chains.next_if(|(k, _)| *k == item.key) {
                Some((_, image)) => push(image)?,
                None => push(Some(item.value))?,
            }
        }
        for (_, image) in chains {
            push(image)?;
        }
        Ok(out)
    }

    // ---- crash & recovery --------------------------------------------

    /// Simulate a hard crash (volatile state lost; each dirty page was
    /// "stolen" to disk with probability `steal_probability`) and run ARIES
    /// recovery. Requires no active transactions on the calling side.
    pub fn crash_and_recover(&self, steal_probability: f64, seed: u64) -> Result<RecoveryReport> {
        let mut rng = txview_common::rng::Rng::new(seed);
        self.pool.simulate_crash(steal_probability, &mut rng)?;
        self.log.simulate_crash();
        self.versions.clear();
        self.touched.clear();
        self.cascades.clear();
        self.ghost_queue.clear();
        self.watermark.clear_snapshots();
        self.locks.reset();
        self.txns.reset_active();
        self.health.reset();
        recover(&self.log, &self.pool, self)
    }
}

/// The version-store materializer for the row of `view` with key `kb`:
/// applies forward escrow pairs to a (possibly absent) row image, patching
/// the aggregate region — the row's tail — in place. An absent row
/// materializes from the invisible zero row of its group, the only case
/// that decodes the key.
fn materialize_view_row(
    view: &ViewDef,
    kb: &[u8],
    image: Option<Vec<u8>>,
    pairs: &[(u16, txview_wal::record::ValueDelta)],
) -> Result<Option<Vec<u8>>> {
    let mut value = match image {
        Some(bytes) => bytes,
        None => {
            let group = Key::from_bytes(kb.to_vec()).decode_values()?;
            encode_view_row(&group, 0, &escrow::zero_aggs(view))?
        }
    };
    let off = value
        .len()
        .checked_sub(escrow::agg_region_len(view.aggs.len()))
        .ok_or_else(|| Error::corruption("view row shorter than its aggregate region"))?;
    escrow::apply_forward_pairs(&mut value[off..], view.aggs.len(), pairs)?;
    Ok(Some(value))
}

/// Decode an encoded view row iff it is visible (COUNT_BIG > 0).
/// Catalog-free, and the only decode a reader pays per row.
pub(crate) fn visible_row(view: &ViewDef, value: &[u8]) -> Result<Option<Row>> {
    let row = Row::from_bytes(value)?;
    let count = row.get(view.group_types.len()).as_int()?;
    Ok((count > 0).then_some(row))
}

/// Is an encoded view row visible? See [`visible_row`].
fn row_visible(view: &ViewDef, value: &[u8]) -> Result<bool> {
    visible_row(view, value).map(|row| row.is_some())
}

impl UndoHandler for Database {
    /// Logical undo executor: runs during runtime rollback AND crash
    /// recovery. Every page change is logged as a CLR chaining `undo_next`.
    fn undo(&self, txn: TxnId, op: &UndoOp, undo_next: Lsn, chain: &mut Lsn) -> Result<()> {
        let last = chain;
        let how = OpLog::Clr { undo_next };
        match op {
            UndoOp::IndexInsert { index, key } => {
                // Undo a base-row insert: ghost it (X lock held by owner).
                let tree = self.tree(*index)?;
                let k = Key::from_bytes(key.clone());
                let mut ctx = LogCtx { log: &self.log, txn, last_lsn: last };
                tree.set_ghost(&k, true, &mut ctx, &how)?;
                self.enqueue_ghost(*index, key.clone());
            }
            UndoOp::IndexDelete { index, key, row } => {
                // Undo a base-row delete: resurrect the ghost.
                let tree = self.tree(*index)?;
                let k = Key::from_bytes(key.clone());
                let mut ctx = LogCtx { log: &self.log, txn, last_lsn: last };
                match tree.set_ghost(&k, false, &mut ctx, &how) {
                    Ok(_) => {}
                    Err(Error::NotFound(_)) => {
                        // Defensive: re-insert from the logged image.
                        tree.insert(&k, row, &mut ctx, &how)?;
                    }
                    Err(e) => return Err(e),
                }
            }
            UndoOp::IndexUpdate { index, key, old_row } => {
                let tree = self.tree(*index)?;
                let k = Key::from_bytes(key.clone());
                let mut ctx = LogCtx { log: &self.log, txn, last_lsn: last };
                tree.update_value(&k, old_row, &mut ctx, &how)?;
            }
            UndoOp::Escrow { index, key, deltas } => {
                let tree = self.tree(*index)?;
                let k = Key::from_bytes(key.clone());
                let group = k.decode_values()?;
                let cat = self.catalog.read();
                let parent = cat
                    .views()
                    .find(|v| v.index == *index)
                    .cloned()
                    .ok_or_else(|| Error::NotFound(format!("view for index {}", index.0)))?;
                drop(cat);
                let n_aggs = parent.aggs.len();
                let region_off = agg_region_offset(&group);
                let mut new_count = 0i64;
                let mut ctx = LogCtx { log: &self.log, txn, last_lsn: last };
                tree.modify_value_region(
                    &k,
                    region_off,
                    |old| {
                        let out = apply_undo_pairs(old, n_aggs, deltas)?;
                        new_count = escrow::decode_agg_region(&out, n_aggs)?.0;
                        Ok(out)
                    },
                    &mut ctx,
                    &how,
                )?;
                if new_count == 0 {
                    self.enqueue_ghost(*index, key.clone());
                }
                // Keep the version-publication accumulator in sync with a
                // partial (savepoint) rollback: subtract the undone pairs.
                let inverse: Vec<(u16, txview_wal::record::ValueDelta)> =
                    deltas.iter().map(|(p, d)| (*p, d.inverse())).collect();
                self.touched.update(&txn, |slot| -> Result<()> {
                    if let Some(rows) = slot {
                        if let Some(Touch::Additive(acc)) = rows.get_mut(&(*index, key.clone())) {
                            escrow::merge_pairs(acc, &inverse)?;
                        }
                    }
                    Ok(())
                })?;
                // Mirror the accumulator fix in the cascade queue: a
                // savepoint rollback of a parent delta retracts its
                // projection from any still-queued child entries, so the
                // later commit flush applies only surviving work. (Views
                // with children are all-SUM by DDL validation, so the
                // undo pairs reconstruct a complete forward delta: pos 0
                // is COUNT_BIG, pos 1.. the aggregates.)
                if self.graph.read().has_children(parent.id) {
                    let mut fwd = RowDelta {
                        group,
                        count: 0,
                        aggs: parent
                            .aggs
                            .iter()
                            .map(|a| match a {
                                AggSpec::SumFloat { .. } | AggSpec::Avg { float: true, .. } => {
                                    ValueDelta::Float(0.0)
                                }
                                _ => ValueDelta::Int(0),
                            })
                            .collect(),
                    };
                    for (pos, d) in deltas {
                        if *pos == 0 {
                            if let ValueDelta::Int(c) = d {
                                fwd.count = *c;
                            }
                        } else if let Some(slot) = fwd.aggs.get_mut(*pos as usize - 1) {
                            *slot = *d;
                        }
                    }
                    let inv = fwd.inverse();
                    let children: Vec<ViewId> = self.graph.read().children(parent.id).to_vec();
                    for child_id in children {
                        let child = self.catalog.read().view_by_id(child_id)?.clone();
                        let projected = derived_delta(&child, &parent, &inv)?;
                        if projected.is_noop() {
                            continue;
                        }
                        let depth = self.graph.read().depth(child_id).unwrap_or(0);
                        let kb = projected.key().as_bytes().to_vec();
                        let pending = PendingDelta {
                            group: projected.group,
                            count: projected.count,
                            aggs: projected.aggs,
                        };
                        // `update`, not `with_entry`: recovery undo (and a
                        // full rollback, which drops the queue first) must
                        // not materialize an empty queue as a side effect.
                        self.cascades.update(&txn, |slot| match slot {
                            Some(q) => q.retract(depth, child_id, &kb, &pending),
                            None => Ok(()),
                        })?;
                    }
                }
            }
            UndoOp::None | UndoOp::Page { .. } => {}
        }
        Ok(())
    }
}
