//! The log manager: LSN assignment, buffered append, group flush,
//! checkpoints and the master checkpoint pointer.
//!
//! An LSN is the byte offset at which its record starts in the log, after
//! a short header (magic and format version) that keeps offset 0 —
//! [`Lsn::NULL`] — free. The decoder refuses a record whose stored `lsn`
//! is not the offset it was read from. The record layout is in
//! [`crate::record`]; this is format version 2, and `open` refuses any
//! other version, version 1 included, with no migration.
//!
//! Records are appended to an in-memory tail and become durable only when
//! flushed (`flush_to` / `flush_all`). The buffer pool's WAL-before-data
//! hook calls [`LogManager::flush_to`] with a pageLSN; commit calls it with
//! the commit record's LSN. A simulated crash discards the un-flushed tail,
//! exactly like a real power failure.
//!
//! Under the same mutex that assigns LSNs, the manager also knows every
//! open bracket, user and system transactions alike: a transaction's first
//! record (the one with a null `prev_lsn`) opens its bracket; Commit, or
//! End after a rollback, closes it. There is no Begin record, so a
//! transaction that logs nothing has no bracket. That is what lets
//! [`LogManager::checkpoint`] name the offset restart must read from,
//! instead of restart reading the whole log.

use crate::record::{LogRecord, RecordBody, RecordRun, MAX_RECORD_LEN};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txview_common::codec::{Reader, Writer};
use txview_common::frame;
use txview_common::obs::{Histogram, ObsClock, Snapshot};
use txview_common::retry::{RetryCounters, RetryPolicy, RetryStatsSnapshot};
use txview_common::{Error, Lsn, Result, TxnId};
use txview_storage::buffer::BufferPool;
use txview_storage::fault::CrashProbe;

/// Reserved payload-header bytes at the start of every slotted page payload
/// (B-tree node header). Shared between the WAL redo applier and the B-tree.
pub const PAYLOAD_HEADER_LEN: usize = 16;

/// The bytes every log store starts with: magic, then the format version.
pub const LOG_HEADER: [u8; 8] = [b'T', b'X', b'V', b'L', 2, 0, 0, 0];

/// Length of [`LOG_HEADER`]: the LSN of the first record.
pub const LOG_HEADER_LEN: u64 = LOG_HEADER.len() as u64;

/// Durable byte sink for the log, plus the master checkpoint pointer. A
/// new store already holds [`LOG_HEADER`].
pub trait LogStore: Send + Sync {
    /// Durably append bytes (caller serializes; called under the manager's
    /// lock).
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Force bytes to stable storage.
    fn sync(&self) -> Result<()>;
    /// Total durable length in bytes.
    fn len_bytes(&self) -> Result<u64>;
    /// Read all durable bytes from `offset` to the end.
    fn read_from(&self, offset: u64) -> Result<Vec<u8>>;
    /// Read at most `len` durable bytes starting at `offset`.
    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>>;
    /// Persist the master checkpoint pointer: the checkpoint record's LSN.
    fn set_master(&self, lsn: Lsn) -> Result<()>;
    /// Read the master checkpoint pointer ([`Lsn::NULL`] when none).
    fn get_master(&self) -> Result<Lsn>;
    /// Persist the replication epoch (term number). A store that predates
    /// replication keeps the default epoch 0, so non-replicated databases
    /// never pay for this.
    fn set_epoch(&self, _epoch: u64) -> Result<()> {
        Ok(())
    }
    /// Read the replication epoch (0 when never set).
    fn get_epoch(&self) -> Result<u64> {
        Ok(0)
    }
}

/// In-memory log store (tests, crash simulation).
pub struct MemLogStore {
    durable: Mutex<Vec<u8>>,
    master: Mutex<Lsn>,
    epoch: AtomicU64,
}

impl MemLogStore {
    /// New store holding only the log header.
    pub fn new() -> MemLogStore {
        MemLogStore {
            durable: Mutex::new(LOG_HEADER.to_vec()),
            master: Mutex::new(Lsn::NULL),
            epoch: AtomicU64::new(0),
        }
    }
}

impl Default for MemLogStore {
    fn default() -> MemLogStore {
        MemLogStore::new()
    }
}

impl LogStore for MemLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.durable.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn len_bytes(&self) -> Result<u64> {
        Ok(self.durable.lock().len() as u64)
    }

    fn read_from(&self, offset: u64) -> Result<Vec<u8>> {
        let d = self.durable.lock();
        Ok(d[(offset as usize).min(d.len())..].to_vec())
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let d = self.durable.lock();
        let start = (offset as usize).min(d.len());
        Ok(d[start..(start + len).min(d.len())].to_vec())
    }

    fn set_master(&self, lsn: Lsn) -> Result<()> {
        *self.master.lock() = lsn;
        Ok(())
    }

    fn get_master(&self) -> Result<Lsn> {
        Ok(*self.master.lock())
    }

    fn set_epoch(&self, epoch: u64) -> Result<()> {
        self.epoch.store(epoch, Ordering::SeqCst);
        Ok(())
    }

    fn get_epoch(&self) -> Result<u64> {
        Ok(self.epoch.load(Ordering::SeqCst))
    }
}

/// File-backed log store. The master pointer lives in a sibling file
/// holding one [`frame`] around the master LSN, then the replication
/// epoch.
pub struct FileLogStore {
    file: Mutex<File>,
    master_path: std::path::PathBuf,
}

impl FileLogStore {
    /// Open (or create) `path` as the log file; the master pointer is kept
    /// at `path` + ".master". A new, empty file gets the log header.
    pub fn open(path: impl AsRef<Path>) -> Result<FileLogStore> {
        let path = path.as_ref();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&LOG_HEADER)?;
            file.sync_all()?;
        }
        let mut master_path = path.as_os_str().to_owned();
        master_path.push(".master");
        Ok(FileLogStore { file: Mutex::new(file), master_path: master_path.into() })
    }

    /// The master file's (LSN, epoch); both zero when there is no file.
    fn read_master(&self) -> Result<(Lsn, u64)> {
        let bytes = match std::fs::read(&self.master_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Lsn::NULL, 0)),
            Err(e) => return Err(e.into()),
        };
        let payload = frame::decode_exact(&bytes, "master")?;
        if payload.len() != 16 {
            return Err(Error::corruption(format!("master: payload of {} bytes", payload.len())));
        }
        let mut r = Reader::new(payload);
        Ok((r.lsn()?, r.u64()?))
    }

    fn write_master(&self, lsn: Lsn, epoch: u64) -> Result<()> {
        let mut w = Writer::with_capacity(16);
        w.lsn(lsn).u64(epoch);
        Ok(txview_common::write_file_atomic(&self.master_path, &frame::encode(&w.into_bytes()))?)
    }
}

impl LogStore for FileLogStore {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.file.lock().write_all(bytes)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }

    fn len_bytes(&self) -> Result<u64> {
        Ok(self.file.lock().metadata()?.len())
    }

    fn read_from(&self, offset: u64) -> Result<Vec<u8>> {
        let mut f = self.file.lock();
        let len = f.metadata()?.len();
        let mut buf = Vec::with_capacity(len.saturating_sub(offset) as usize);
        f.seek(SeekFrom::Start(offset))?;
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn read_at(&self, offset: u64, len: usize) -> Result<Vec<u8>> {
        let mut f = self.file.lock();
        // `len` may come from a corrupt frame header: let the file's own
        // length bound the buffer, not `len`.
        let mut buf = Vec::new();
        f.seek(SeekFrom::Start(offset))?;
        (&mut *f).take(len as u64).read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn set_master(&self, lsn: Lsn) -> Result<()> {
        let (_, epoch) = self.read_master()?;
        self.write_master(lsn, epoch)
    }

    fn get_master(&self) -> Result<Lsn> {
        Ok(self.read_master()?.0)
    }

    fn set_epoch(&self, epoch: u64) -> Result<()> {
        let (lsn, _) = self.read_master()?;
        self.write_master(lsn, epoch)
    }

    fn get_epoch(&self) -> Result<u64> {
        Ok(self.read_master()?.1)
    }
}

/// The records appended but not yet handed to the store, framed back to
/// back in one buffer.
struct Tail {
    /// Framed records; those from `head` on are pending.
    buf: Vec<u8>,
    /// Bytes at the front of `buf` that a flush already handed to the
    /// store. They are dropped only once they are at least as many as the
    /// pending bytes behind them, so compacting moves no more bytes than
    /// flushes have cut, where shifting the rest down at every cut inside
    /// the tail would move it again and again.
    head: usize,
    /// The LSN of each pending record, oldest first.
    starts: VecDeque<u64>,
    /// Where the next record's payload is built before it is framed.
    scratch: Vec<u8>,
    /// Bytes handed to the store so far.
    store_len: u64,
    /// Open brackets: transaction → the LSN of its first record. The first
    /// record opens one, Commit or End closes it — user and system
    /// transactions alike, since both append here.
    open: HashMap<TxnId, Lsn>,
    /// The latest master checkpoint's `scan_from`: the lowest redo start a
    /// recLSN can need (see [`LogManager::checkpoint`]).
    redo_floor: u64,
}

impl Tail {
    /// The pending bytes.
    fn pending(&self) -> &[u8] {
        &self.buf[self.head..]
    }

    /// LSN (byte offset) of the next record appended.
    fn end(&self) -> u64 {
        self.store_len + self.pending().len() as u64
    }
}

/// The log manager.
pub struct LogManager {
    store: Box<dyn LogStore>,
    tail: Mutex<Tail>,
    /// Serializes phase-2 syncs independently of the tail mutex, so the
    /// next group-commit batch can form and append while the previous
    /// batch's sync is still in flight (the pipelined handoff seam).
    sync_lock: Mutex<()>,
    /// LSN of the newest record appended (flushed or not).
    last_lsn: AtomicU64,
    flushed_lsn: AtomicU64,
    /// Highest LSN whose bytes reached `store.append` (but are only durable
    /// once synced). Sits between `flushed_lsn` and the pending tail so a
    /// failed sync can be retried without re-appending (no duplicate
    /// records) and without falsely reporting the flush complete.
    appended_lsn: AtomicU64,
    next_txn: AtomicU64,
    /// Monotone counters for experiment reporting.
    appended_records: AtomicU64,
    appended_bytes: AtomicU64,
    crash_probe: RwLock<Option<Arc<CrashProbe>>>,
    retry: Mutex<RetryPolicy>,
    retry_counters: RetryCounters,
    obs: WalObs,
}

/// Flush-path observability: latency of the two `flush_to` phases and the
/// group-commit batch size (how many pending records each physical append
/// absorbs — the paper's group-commit amortization in one histogram).
#[derive(Default)]
pub struct WalObs {
    /// Time source; switched to a logical tick counter in deterministic runs.
    pub clock: ObsClock,
    /// Phase-1 latency: handing the pending prefix to the store.
    pub append_us: Histogram,
    /// Phase-2 latency: forcing appended bytes to stable storage.
    pub sync_us: Histogram,
    /// Records per physical append (group-commit batch size).
    pub batch_records: Histogram,
}

impl LogManager {
    /// Open a manager over `store`: the next LSN is the store's length.
    /// Only the header and the records from the master checkpoint on are
    /// read; transaction ids continue above the checkpoint's `next_txn` and
    /// every id after it.
    pub fn open(store: Box<dyn LogStore>) -> Result<LogManager> {
        frame::check_header(&store.read_at(0, LOG_HEADER.len())?, &LOG_HEADER, "log")?;
        let master = store.get_master()?;
        let (from, mut next_txn, mut redo_floor) = (LOG_HEADER_LEN, 1, LOG_HEADER_LEN);
        let records = scan(store.as_ref(), if master.is_null() { from } else { master.0 })?.0;
        if !master.is_null() {
            match records.first() {
                Some(LogRecord { body: RecordBody::Checkpoint { scan_from, next_txn: n, .. }, .. }) =>
                {
                    (next_txn, redo_floor) = (*n, *scan_from);
                }
                _ => return Err(Error::corruption("master pointer does not name its checkpoint")),
            }
        }
        let next_txn = records.iter().map(|r| r.txn.0 + 1).fold(next_txn, u64::max);
        let last = records.last().map_or(0, |r| r.lsn.0);
        Ok(LogManager {
            tail: Mutex::new(Tail {
                buf: Vec::new(),
                head: 0,
                starts: VecDeque::new(),
                scratch: Vec::new(),
                store_len: store.len_bytes()?,
                open: HashMap::new(),
                redo_floor,
            }),
            store,
            sync_lock: Mutex::new(()),
            last_lsn: AtomicU64::new(last),
            flushed_lsn: AtomicU64::new(last),
            appended_lsn: AtomicU64::new(last),
            next_txn: AtomicU64::new(next_txn),
            appended_records: AtomicU64::new(0),
            appended_bytes: AtomicU64::new(0),
            crash_probe: RwLock::new(None),
            retry: Mutex::new(RetryPolicy::default()),
            retry_counters: RetryCounters::default(),
            obs: WalObs::default(),
        })
    }

    /// Replace the transient-I/O retry policy for the append/sync/master
    /// seams.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Retry telemetry for the log-I/O seam.
    pub fn io_retry_stats(&self) -> RetryStatsSnapshot {
        self.retry_counters.snapshot()
    }

    /// Register a crash-point probe, invoked inside the group flush just
    /// before the append and again between the append and the sync. The
    /// torture harness uses this to land crashes at the "WAL bytes
    /// written but not yet forced" seam.
    pub fn set_crash_probe(&self, f: Arc<CrashProbe>) {
        *self.crash_probe.write() = Some(f);
    }

    fn probe(&self, point: &'static str) {
        let hook = self.crash_probe.read().clone();
        if let Some(f) = hook {
            f(point);
        }
    }

    /// Fire the registered crash probe at `point`. Public so the commit
    /// pipeline's seams (`wal.pipeline.*`) land in the same torture sweep
    /// as the flush-internal probes.
    pub fn probe_point(&self, point: &'static str) {
        self.probe(point);
    }

    /// Allocate a transaction id. The log manager owns the id space so that
    /// user transactions, system transactions, and post-recovery work never
    /// collide (ids restart above everything seen in the durable log).
    pub fn alloc_txn_id(&self) -> TxnId {
        TxnId(self.next_txn.fetch_add(1, Ordering::SeqCst))
    }

    /// Convenience: fresh in-memory log.
    pub fn in_memory() -> LogManager {
        LogManager::open(Box::new(MemLogStore::new())).expect("mem log open")
    }

    /// Append a record; returns its LSN. Not durable until flushed.
    pub fn append(&self, txn: TxnId, prev_lsn: Lsn, body: RecordBody) -> Lsn {
        let mut tail = self.tail.lock();
        self.append_locked(&mut tail, txn, prev_lsn, body)
    }

    /// [`LogManager::append`] body; caller holds the tail mutex.
    fn append_locked(&self, tail: &mut Tail, txn: TxnId, prev_lsn: Lsn, body: RecordBody) -> Lsn {
        let lsn = Lsn(tail.end());
        if matches!(body, RecordBody::Commit | RecordBody::End) {
            tail.open.remove(&txn);
        } else if prev_lsn.is_null() && txn != TxnId::NONE {
            tail.open.entry(txn).or_insert(lsn);
        }
        let Tail { buf, starts, scratch, .. } = &mut *tail;
        let before = buf.len();
        LogRecord { lsn, prev_lsn, txn, body }.encode_framed_into(scratch, buf);
        starts.push_back(lsn.0);
        self.appended_records.fetch_add(1, Ordering::Relaxed);
        self.appended_bytes.fetch_add((buf.len() - before) as u64, Ordering::Relaxed);
        self.last_lsn.store(lsn.0, Ordering::SeqCst);
        lsn
    }

    /// Highest durably-flushed LSN.
    pub fn flushed_lsn(&self) -> Lsn {
        Lsn(self.flushed_lsn.load(Ordering::SeqCst))
    }

    /// Highest LSN whose bytes reached the store's append (durable only
    /// after a subsequent successful sync).
    pub fn appended_lsn(&self) -> Lsn {
        Lsn(self.appended_lsn.load(Ordering::SeqCst))
    }

    /// LSN of the newest record appended so far (flushed or not). Used as
    /// the snapshot point of snapshot-isolation readers.
    pub fn last_allocated_lsn(&self) -> Lsn {
        Lsn(self.last_lsn.load(Ordering::SeqCst))
    }

    /// The log's end: the LSN the next record appended takes. A
    /// transaction that logged nothing commits here, at the LSN its Commit
    /// would have taken, and appends nothing.
    pub fn end_lsn(&self) -> Lsn {
        Lsn(self.tail.lock().end())
    }

    /// Make every record with `lsn <= target` durable. The tail is written
    /// in order, so this flushes a prefix.
    ///
    /// The flush is two-phased so a transient fault leaves the buffer
    /// consistent for retry: phase one hands pending bytes to the store
    /// (retried under the policy; on success those records move from the
    /// tail to the `appended_lsn` watermark, so a later sync failure never
    /// re-appends them), phase two forces them to stable storage (also
    /// retried; `flushed_lsn` advances only after a successful sync, so no
    /// caller is ever acked on unsynced bytes). On error every waiter on
    /// this group flush sees the failure, nothing is acked, and a later
    /// `flush_to` resumes exactly where this one stopped.
    pub fn flush_to(&self, target: Lsn) -> Result<()> {
        if self.flushed_lsn() >= target {
            return Ok(());
        }
        self.append_upto(target)?;
        self.sync_appended()
    }

    /// Strict serial flush: append and sync with the sync mutex held
    /// across *both* phases, so concurrent committers cannot piggyback on
    /// each other's device syncs — every commit pays its own.
    ///
    /// `flush_to`'s split-lock flush releases the tail before the sync and
    /// reads the appended watermark under the sync mutex, which makes
    /// blocked flushers share whichever sync runs first. That sharing is
    /// exactly group commit — correct, but it is the *feature* the commit
    /// pipeline exists to provide, and a baseline that gets it for free
    /// makes every serial-vs-pipelined comparison vacuous. The serial
    /// commit path uses this strict variant so "serial" means what it
    /// says: one device sync per committer. Page-flush hooks, checkpoints,
    /// and the pipeline's own leader rounds keep the sharing `flush_to`.
    pub fn flush_strict(&self, target: Lsn) -> Result<()> {
        let _sync = self.sync_lock.lock();
        if self.flushed_lsn() >= target {
            // Our bytes were covered by a sync that completed before we
            // reached the device; they are durable, nothing to pay.
            return Ok(());
        }
        self.append_upto(target)?;
        self.sync_appended_locked()
    }

    /// Phase 1 of a flush: hand every pending record with `lsn <= target`
    /// to the store, advancing the `appended_lsn` watermark. The bytes are
    /// *not* durable until a subsequent [`LogManager::sync_appended`]. The
    /// tail mutex is released before any sync, which is what lets a
    /// group-commit leader append the next batch while the previous
    /// batch's sync is still in flight.
    pub fn append_upto(&self, target: Lsn) -> Result<()> {
        if self.appended_lsn() >= target {
            return Ok(());
        }
        let mut tail = self.tail.lock();
        let policy = *self.retry.lock();
        let split = tail.starts.partition_point(|&lsn| lsn <= target.0);
        if split > 0 {
            // A record's cut point is its LSN's offset into the pending bytes.
            let cut = match tail.starts.get(split) {
                Some(&next) => (next - tail.store_len) as usize,
                None => tail.pending().len(),
            };
            let last = tail.starts[split - 1];
            self.probe("wal.flush_to.pre_append");
            let t0 = self.obs.clock.now();
            let bytes = &tail.pending()[..cut];
            policy.run(&self.retry_counters, || self.store.append(bytes))?;
            self.obs.append_us.record(self.obs.clock.now().saturating_sub(t0));
            self.obs.batch_records.record(split as u64);
            tail.starts.drain(..split);
            tail.store_len += cut as u64;
            tail.head += cut;
            if tail.head >= tail.buf.len() - tail.head {
                let head = std::mem::take(&mut tail.head);
                tail.buf.drain(..head);
            }
            self.appended_lsn.fetch_max(last, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Phase 2 of a flush: force everything appended-but-unsynced to
    /// stable storage — including leftovers from an earlier flush whose
    /// sync failed. The `appended_lsn` watermark is read *after* taking
    /// the sync mutex, so a sync always covers every byte appended before
    /// it and concurrent flushers stay idempotent: whichever sync runs
    /// first advances `flushed_lsn` over all of them, and the others
    /// become no-ops.
    pub fn sync_appended(&self) -> Result<()> {
        let _sync = self.sync_lock.lock();
        self.sync_appended_locked()
    }

    /// [`LogManager::sync_appended`] body; caller holds `sync_lock`.
    fn sync_appended_locked(&self) -> Result<()> {
        let appended = self.appended_lsn.load(Ordering::SeqCst);
        if appended > self.flushed_lsn.load(Ordering::SeqCst) {
            let policy = *self.retry.lock();
            self.probe("wal.flush_to.pre_sync");
            let t0 = self.obs.clock.now();
            policy.run(&self.retry_counters, || self.store.sync())?;
            self.obs.sync_us.record(self.obs.clock.now().saturating_sub(t0));
            self.flushed_lsn.fetch_max(appended, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Flush the entire tail. The target watermark is taken under the tail
    /// mutex: `append` assigns LSNs under the same mutex, so the target
    /// is exactly "everything buffered when the flush started" and a
    /// pipelined appender racing in cannot extend it mid-flush.
    pub fn flush_all(&self) -> Result<()> {
        let target = {
            let _tail = self.tail.lock();
            self.last_allocated_lsn()
        };
        self.flush_to(target)
    }

    /// Take a fuzzy checkpoint of `pool` and make it the master: the
    /// record names `scan_from`, the LSN restart reads from, which is the
    /// earliest of
    ///
    /// * where the checkpoint began — the oldest open bracket's first
    ///   record, or the log's end when none is open. Taken under the tail
    ///   mutex, so no bracket can open between the snapshot and the LSNs
    ///   after it; undo
    ///   finds every loser's records from here on, and analysis adds the
    ///   page of every record from here on to the DPT itself;
    /// * each dirty page's recLSN, where its redo starts — raised to the
    ///   previous master's `scan_from`: a page clean at that checkpoint's
    ///   snapshot made all its current changes after that checkpoint began.
    ///
    /// Before the dirty-page snapshot, frames with a null recLSN (no disk
    /// image since allocation) are written back. A null recLSN left in the
    /// snapshot therefore belongs to a page dirtied after the checkpoint
    /// began, so every change on it is logged at or after `begin` —
    /// analysis adds such a page itself, and the snapshot leaves it out.
    pub fn checkpoint(&self, pool: &Arc<BufferPool>) -> Result<Lsn> {
        let begin = {
            let tail = self.tail.lock();
            tail.open.values().copied().min().unwrap_or(Lsn(tail.end()))
        };
        pool.write_back_unanchored()?;
        let mut dirty = pool.dirty_pages();
        dirty.retain(|&(_, rec_lsn)| !rec_lsn.is_null());
        let (lsn, scan_from) = {
            let mut tail = self.tail.lock();
            let floor = tail.redo_floor;
            let scan_from = dirty.iter().map(|&(_, l)| l.0.max(floor)).fold(begin.0, u64::min);
            let next_txn = self.next_txn.load(Ordering::SeqCst);
            let body = RecordBody::Checkpoint { scan_from, begin, next_txn, dirty };
            (self.append_locked(&mut tail, TxnId::NONE, Lsn::NULL, body), scan_from)
        };
        self.flush_to(lsn)?;
        self.set_master_raw(lsn)?;
        self.tail.lock().redo_floor = scan_from;
        Ok(lsn)
    }

    /// Decode the one durable record whose LSN is `lsn`, or `None` if no
    /// whole record starts there.
    pub fn read_record_at(&self, lsn: Lsn) -> Result<Option<LogRecord>> {
        let Some(span) = frame::span_var(&self.store.read_at(lsn.0, 10)?, MAX_RECORD_LEN) else {
            return Ok(None);
        };
        let bytes = self.store.read_at(lsn.0, span)?;
        Ok(LogRecord::decode_framed(&bytes, lsn.0)?.map(|(rec, _)| rec))
    }

    /// The persisted master checkpoint's LSN ([`Lsn::NULL`] when none).
    pub fn master(&self) -> Result<Lsn> {
        self.store.get_master()
    }

    /// Persist the replication epoch (term number) in the master record.
    pub fn set_epoch(&self, epoch: u64) -> Result<()> {
        self.store.set_epoch(epoch)
    }

    /// The persisted replication epoch (0 when never set).
    pub fn epoch(&self) -> Result<u64> {
        self.store.get_epoch()
    }

    /// Persist the master checkpoint pointer directly (follower replay:
    /// the follower mirrors the leader's checkpoint after flushing all
    /// pages, without appending a new record).
    pub fn set_master_raw(&self, lsn: Lsn) -> Result<()> {
        let policy = *self.retry.lock();
        policy.run(&self.retry_counters, || self.store.set_master(lsn))
    }

    /// Durably append a run of whole records, bypassing the in-memory
    /// tail, and sync. Follower replay uses this to keep its log a
    /// byte-identical prefix of the leader's: the run was decoded once, at
    /// the LSN it claims, so a run that does not start at this log's end is
    /// refused before it lands. The LSN watermarks advance over it, so
    /// follower snapshot reads (which pin `last_allocated_lsn`) see it as
    /// durable.
    pub fn append_raw_durable(&self, run: &RecordRun) -> Result<()> {
        let mut tail = self.tail.lock();
        if run.start() != tail.store_len {
            return Err(Error::corruption(format!(
                "raw append at {} does not start at the log's end {}",
                run.start(),
                tail.store_len
            )));
        }
        self.store.append(run.bytes())?;
        tail.store_len = run.end();
        self.store.sync()?;
        if let Some(last) = run.records().last() {
            for w in [&self.last_lsn, &self.appended_lsn, &self.flushed_lsn] {
                w.fetch_max(last.lsn.0, Ordering::SeqCst);
            }
        }
        Ok(())
    }

    /// Snapshot of all durable records from `offset` (an LSN, or 0 for the
    /// first record). Stops cleanly at a torn tail.
    pub fn read_durable_from(&self, offset: u64) -> Result<Vec<LogRecord>> {
        Ok(self.scan_durable(offset)?.0)
    }

    /// [`LogManager::read_durable_from`], plus how many bytes the store
    /// handed back for it.
    pub fn scan_durable(&self, offset: u64) -> Result<(Vec<LogRecord>, u64)> {
        scan(self.store.as_ref(), offset)
    }

    /// Simulate a crash: the un-flushed tail evaporates, and with it every
    /// open bracket (restart closes the durable ones). As on a reopen, the
    /// next LSN is the store's length (recovery reopens with a fresh
    /// manager in real use; tests may keep using this one).
    pub fn simulate_crash(&self) {
        let mut tail = self.tail.lock();
        tail.buf.clear();
        tail.head = 0;
        tail.starts.clear();
        tail.open.clear();
        self.last_lsn.store(self.appended_lsn.load(Ordering::SeqCst), Ordering::SeqCst);
    }

    /// Total records appended since open (durable or not).
    pub fn appended_records(&self) -> u64 {
        self.appended_records.load(Ordering::Relaxed)
    }

    /// Total bytes appended since open (durable or not).
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes.load(Ordering::Relaxed)
    }

    /// Current durable length in bytes.
    pub fn durable_len(&self) -> Result<u64> {
        self.store.len_bytes()
    }

    /// Flush-path observability handles (clock switching, direct reads).
    pub fn obs(&self) -> &WalObs {
        &self.obs
    }

    /// Point-in-time metrics snapshot of the log layer, `wal.*`-namespaced.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.counter("wal.appended_records", self.appended_records());
        s.counter("wal.appended_bytes", self.appended_bytes());
        let retry = self.retry_counters.snapshot();
        s.counter("wal.io_retries", retry.retries);
        s.counter("wal.io_exhausted", retry.exhausted);
        s.hist("wal.append_us", self.obs.append_us.snapshot());
        s.hist("wal.sync_us", self.obs.sync_us.snapshot());
        s.hist("wal.batch_records", self.obs.batch_records.snapshot());
        s.sort();
        s
    }
}

/// Decode the durable records from `offset` (raised to the first record's
/// LSN) to the first torn or missing one, plus the bytes read for them.
fn scan(store: &dyn LogStore, offset: u64) -> Result<(Vec<LogRecord>, u64)> {
    let from = offset.max(LOG_HEADER_LEN);
    let bytes = store.read_from(from)?;
    Ok((LogRecord::decode_run(&bytes, from)?.0, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RedoOp, UndoOp};
    use txview_common::{Error, PageId};

    /// A page record: as a transaction's first record, it opens the
    /// transaction's bracket.
    fn first_body() -> RecordBody {
        RecordBody::Update { page: PageId(1), redo: RedoOp::SlotRemove { idx: 0 }, undo: UndoOp::None }
    }

    fn pool() -> Arc<BufferPool> {
        BufferPool::new(Arc::new(txview_storage::disk::MemDisk::new()), 4)
    }

    fn scan_from_of(log: &LogManager) -> u64 {
        match log.read_record_at(log.master().unwrap()).unwrap().unwrap().body {
            RecordBody::Checkpoint { scan_from, .. } => scan_from,
            other => panic!("master names {other:?}"),
        }
    }

    #[test]
    fn append_assigns_increasing_lsns() {
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        let b = log.append(TxnId(1), a, RecordBody::Commit);
        assert!(b > a);
        assert_eq!(log.appended_records(), 2);
    }

    #[test]
    fn obs_snapshot_tracks_flush_phases_and_batch_size() {
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        let b = log.append(TxnId(1), a, RecordBody::Commit);
        log.flush_to(b).unwrap();
        let s = log.obs_snapshot();
        assert_eq!(s.counter_value("wal.appended_records"), Some(2));
        let batch = s.hist_value("wal.batch_records").unwrap();
        assert_eq!(batch.count(), 1, "one physical append");
        assert_eq!(batch.quantile(1.0) >= 2, true, "batch absorbed both records");
        assert_eq!(s.hist_value("wal.append_us").unwrap().count(), 1);
        assert_eq!(s.hist_value("wal.sync_us").unwrap().count(), 1);
        s.validate().unwrap();
        // A no-op flush (already durable) records nothing new.
        log.flush_to(b).unwrap();
        assert_eq!(log.obs_snapshot().hist_value("wal.sync_us").unwrap().count(), 1);
    }

    #[test]
    fn flush_to_makes_prefix_durable() {
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        let b = log.append(TxnId(1), a, RecordBody::Commit);
        log.flush_to(a).unwrap();
        assert_eq!(log.flushed_lsn(), a);
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 1);
        log.flush_to(b).unwrap();
        assert_eq!(log.read_durable_from(0).unwrap().len(), 2);
    }

    #[test]
    fn crash_drops_unflushed_tail() {
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        log.flush_to(a).unwrap();
        let _b = log.append(TxnId(1), a, RecordBody::Commit);
        log.simulate_crash();
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].body, first_body());
    }

    #[test]
    fn checkpoint_sets_master_and_is_durable() {
        let log = LogManager::in_memory();
        log.append(TxnId(1), Lsn::NULL, first_body());
        let ck = log.checkpoint(&pool()).unwrap();
        assert_eq!(log.master().unwrap(), ck);
        let recs = log.read_durable_from(ck.0).unwrap();
        assert_eq!(recs.len(), 1);
        assert!(matches!(recs[0].body, RecordBody::Checkpoint { .. }));
        assert_eq!(log.read_record_at(ck).unwrap().unwrap(), recs[0]);
        // Txn 1 is still open: restart must read from its first record.
        assert_eq!(scan_from_of(&log), LOG_HEADER_LEN);
    }

    /// `scan_from` follows the oldest open bracket — a transaction's first
    /// record opens it, a later record does not move it, and Commit or End
    /// closes it — and falls back to the checkpoint itself once every
    /// bracket is closed.
    #[test]
    fn scan_from_tracks_the_oldest_open_bracket() {
        let log = LogManager::in_memory();
        let p = pool();
        let u = log.append(TxnId(1), Lsn::NULL, first_body());
        let s = log.append(TxnId(2), Lsn::NULL, first_body());
        let r = log.append(TxnId(3), Lsn::NULL, first_body());
        let u = log.append(TxnId(1), u, first_body());
        log.flush_all().unwrap();
        let offsets: Vec<u64> = log.read_durable_from(0).unwrap().iter().map(|r| r.lsn.0).collect();
        log.checkpoint(&p).unwrap();
        assert_eq!(scan_from_of(&log), offsets[0], "txn 1's first record opened its bracket");
        log.append(TxnId(1), u, RecordBody::Commit);
        log.checkpoint(&p).unwrap();
        assert_eq!(scan_from_of(&log), offsets[1], "Commit closed txn 1; txn 2 is still open");
        let a = log.append(TxnId(2), s, RecordBody::Abort);
        log.append(TxnId(2), a, RecordBody::End);
        log.checkpoint(&p).unwrap();
        assert_eq!(scan_from_of(&log), offsets[2], "Abort kept txn 2 open until its End");
        log.append(TxnId(3), r, RecordBody::Commit);
        log.checkpoint(&p).unwrap();
        assert_eq!(scan_from_of(&log), log.master().unwrap().0, "nothing open: the checkpoint");
    }

    /// A dirty page holds `scan_from` back to the batch that carried its
    /// recLSN, even after every bracket has ended.
    #[test]
    fn scan_from_covers_dirty_page_rec_lsns() {
        use txview_storage::page::PageType;
        let log = Arc::new(LogManager::in_memory());
        let p = pool();
        let l2 = Arc::clone(&log);
        p.set_wal_flush(Arc::new(move |lsn| l2.flush_to(lsn)));
        let (pid, page) = p.new_page(PageType::BTreeLeaf).unwrap();
        let a = log.append(TxnId(1), Lsn::NULL, RecordBody::Commit);
        page.write().set_lsn(a);
        drop(page);
        p.flush_all().unwrap();
        let a_at = log.read_durable_from(0).unwrap()[0].lsn.0;
        // Re-dirty the page: its recLSN is `a`, in the first batch.
        let b = log.append(TxnId(2), Lsn::NULL, RecordBody::Commit);
        log.flush_all().unwrap();
        p.fetch(pid).unwrap().write().set_lsn(b);
        log.checkpoint(&p).unwrap();
        assert_eq!(p.dirty_pages(), vec![(pid, a)]);
        assert_eq!(scan_from_of(&log), a_at);
    }

    #[test]
    fn reopen_continues_lsn_sequence() {
        let store = MemLogStore::new();
        let first_lsn;
        {
            // Scope one manager's lifetime over the shared store bytes.
            let log = LogManager::open(Box::new(MemLogStore::new())).unwrap();
            first_lsn = log.append(TxnId(1), Lsn::NULL, first_body());
            log.flush_all().unwrap();
            // Copy durable bytes into `store` to model the same file.
            store.append(&log.read_durable_from(0).unwrap()[0].encode_framed()).unwrap();
        }
        let len = store.len_bytes().unwrap();
        let log2 = LogManager::open(Box::new(store)).unwrap();
        let next = log2.append(TxnId(2), Lsn::NULL, first_body());
        assert!(next > first_lsn);
        assert_eq!(next, Lsn(len), "the next LSN is the store length");
    }

    #[test]
    fn file_log_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!("txview-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.wal");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("test.wal.master"));
        {
            let log = LogManager::open(Box::new(FileLogStore::open(&path).unwrap())).unwrap();
            let a = log.append(TxnId(1), Lsn::NULL, first_body());
            log.checkpoint(&pool()).unwrap();
            log.flush_to(a).unwrap();
        }
        {
            let log = LogManager::open(Box::new(FileLogStore::open(&path).unwrap())).unwrap();
            let recs = log.read_durable_from(0).unwrap();
            assert_eq!(recs.len(), 2);
            let lsn = log.master().unwrap();
            assert!(lsn > Lsn::NULL);
            assert_eq!(log.read_durable_from(lsn.0).unwrap()[0].lsn, lsn);
            assert_eq!(log.read_record_at(lsn).unwrap().unwrap().lsn, lsn);
            assert_eq!(scan_from_of(&log), LOG_HEADER_LEN, "txn 1 never ended");
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(dir.join("test.wal.master"));
    }

    #[test]
    fn retry_absorbs_transient_append_fault() {
        use crate::fault::FaultLogStore;
        use txview_storage::fault::{FaultClock, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let log = LogManager::open(Box::new(FaultLogStore::new(Arc::clone(&clock)))).unwrap();
        log.set_retry_policy(RetryPolicy::no_delay(5));
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        clock.arm(&FaultSchedule { faults: vec![(0, FaultKind::Transient)] });
        log.flush_to(a).unwrap();
        assert_eq!(log.flushed_lsn(), a);
        assert_eq!(log.read_durable_from(0).unwrap().len(), 1);
        let snap = log.io_retry_stats();
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.exhausted, 0);
    }

    #[test]
    fn exhausted_append_fails_cleanly_and_later_flush_resumes() {
        use crate::fault::FaultLogStore;
        use txview_storage::fault::{FaultClock, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let log = LogManager::open(Box::new(FaultLogStore::new(Arc::clone(&clock)))).unwrap();
        log.set_retry_policy(RetryPolicy::no_delay(1)); // no retry: faults surface
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        let b = log.append(TxnId(1), a, RecordBody::Commit);
        clock.arm(&FaultSchedule { faults: vec![(0, FaultKind::Transient)] });
        // The group flush fails as a whole: nothing acked, nothing durable.
        assert!(matches!(log.flush_to(b), Err(Error::IoTransient(_))));
        assert_eq!(log.flushed_lsn(), Lsn::NULL);
        assert!(log.read_durable_from(0).unwrap().is_empty());
        assert_eq!(log.io_retry_stats().exhausted, 1);
        // The tail was left consistent: the retried flush makes exactly the
        // two records durable, in order, with no duplicates.
        log.flush_to(b).unwrap();
        assert_eq!(log.flushed_lsn(), b);
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lsn, a);
        assert_eq!(recs[1].lsn, b);
    }

    #[test]
    fn failed_sync_is_not_acked_and_retry_does_not_duplicate_records() {
        use crate::fault::FaultLogStore;
        use txview_storage::fault::{FaultClock, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let store = FaultLogStore::new(Arc::clone(&clock));
        let log = LogManager::open(Box::new(store)).unwrap();
        log.set_retry_policy(RetryPolicy::no_delay(1));
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        // Event 0 is the append (succeeds), event 1 the sync (fails).
        clock.arm(&FaultSchedule { faults: vec![(1, FaultKind::Transient)] });
        assert!(matches!(log.flush_to(a), Err(Error::IoTransient(_))));
        // Appended but not forced: the flush must NOT be reported complete.
        assert_eq!(log.flushed_lsn(), Lsn::NULL);
        // Retrying completes the flush by syncing only — the record must
        // not be appended a second time.
        log.flush_to(a).unwrap();
        assert_eq!(log.flushed_lsn(), a);
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 1, "sync retry must not duplicate the append");
        assert_eq!(recs[0].lsn, a);
    }

    #[test]
    fn master_write_retries_transient_faults() {
        use crate::fault::FaultLogStore;
        use txview_storage::fault::{FaultClock, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let log = LogManager::open(Box::new(FaultLogStore::new(Arc::clone(&clock)))).unwrap();
        log.set_retry_policy(RetryPolicy::no_delay(5));
        log.append(TxnId(1), Lsn::NULL, first_body());
        // Checkpoint path: one flush carries the page record and the checkpoint
        // record (append=0, sync=1), then the master write at event 2 —
        // fault it.
        clock.arm(&FaultSchedule { faults: vec![(2, FaultKind::Transient)] });
        let ck = log.checkpoint(&pool()).unwrap();
        assert_eq!(log.master().unwrap(), ck);
        assert!(log.io_retry_stats().retries >= 1);
    }

    #[test]
    fn append_upto_is_not_durable_until_sync_appended() {
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        let b = log.append(TxnId(1), a, RecordBody::Commit);
        log.append_upto(b).unwrap();
        assert_eq!(log.appended_lsn(), b, "phase 1 advances the appended watermark");
        assert_eq!(log.flushed_lsn(), Lsn::NULL, "nothing acked before the sync");
        log.sync_appended().unwrap();
        assert_eq!(log.flushed_lsn(), b);
        // Idempotent: a second sync with nothing outstanding records nothing.
        log.sync_appended().unwrap();
        assert_eq!(log.obs_snapshot().hist_value("wal.sync_us").unwrap().count(), 1);
    }

    #[test]
    fn one_sync_covers_all_previously_appended_batches() {
        // Two pipelined batches appended back to back; a single sync makes
        // both durable (the watermark is read under the sync lock).
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, RecordBody::Commit);
        log.append_upto(a).unwrap();
        let b = log.append(TxnId(2), Lsn::NULL, RecordBody::Commit);
        log.append_upto(b).unwrap();
        log.sync_appended().unwrap();
        assert_eq!(log.flushed_lsn(), b);
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 2);
        assert!(recs[0].lsn < recs[1].lsn);
    }

    #[test]
    fn failed_sync_appended_retries_without_duplicating() {
        use crate::fault::FaultLogStore;
        use txview_storage::fault::{FaultClock, FaultKind, FaultSchedule};
        let clock = FaultClock::new();
        let log = LogManager::open(Box::new(FaultLogStore::new(Arc::clone(&clock)))).unwrap();
        log.set_retry_policy(RetryPolicy::no_delay(1));
        let a = log.append(TxnId(1), Lsn::NULL, first_body());
        log.append_upto(a).unwrap();
        // The next I/O event after the already-performed append is the sync.
        clock.arm(&FaultSchedule { faults: vec![(0, FaultKind::Transient)] });
        assert!(matches!(log.sync_appended(), Err(Error::IoTransient(_))));
        assert_eq!(log.flushed_lsn(), Lsn::NULL, "failed sync acks nothing");
        log.sync_appended().unwrap();
        assert_eq!(log.flushed_lsn(), a);
        assert_eq!(log.read_durable_from(0).unwrap().len(), 1);
    }

    #[test]
    fn flush_strict_pays_one_sync_per_commit() {
        // The vacuous-baseline bug: `flush_to` lets a blocked flusher
        // piggyback on whichever sync runs first (accidental group
        // commit). `flush_strict` must not — N sequential strict flushes
        // of N commit records cost N device syncs.
        let log = LogManager::in_memory();
        let mut lsns = Vec::new();
        for t in 1..=4u64 {
            lsns.push(log.append(TxnId(t), Lsn::NULL, RecordBody::Commit));
        }
        for &l in &lsns {
            log.flush_strict(l).unwrap();
        }
        // The first strict flush appends only records <= its target, so
        // each later commit still pays its own append + sync.
        let syncs = log.obs_snapshot().hist_value("wal.sync_us").unwrap().count();
        assert_eq!(syncs, 4, "strict flush must not share syncs");
        assert_eq!(log.flushed_lsn(), *lsns.last().unwrap());
    }

    #[test]
    fn flush_strict_skips_only_already_durable_targets() {
        let log = LogManager::in_memory();
        let a = log.append(TxnId(1), Lsn::NULL, RecordBody::Commit);
        log.flush_strict(a).unwrap();
        let syncs_before = log.obs_snapshot().hist_value("wal.sync_us").unwrap().count();
        log.flush_strict(a).unwrap(); // already durable: no extra device op
        let syncs_after = log.obs_snapshot().hist_value("wal.sync_us").unwrap().count();
        assert_eq!(syncs_before, syncs_after);
    }

    #[test]
    fn concurrent_appends_are_totally_ordered() {
        let log = std::sync::Arc::new(LogManager::in_memory());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        log.append(TxnId(t + 1), Lsn::NULL, RecordBody::Commit);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        log.flush_all().unwrap();
        let recs = log.read_durable_from(0).unwrap();
        assert_eq!(recs.len(), 800);
        for w in recs.windows(2) {
            assert!(w[0].lsn < w[1].lsn, "log must be LSN-ordered");
        }
    }
}
