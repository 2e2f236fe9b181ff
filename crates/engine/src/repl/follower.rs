//! Read-only follower: make shipped frames durable in its own log, replay
//! them through the same redo path crash recovery uses, and advance its
//! durable length — one number that is both where the next frame must
//! start and, since an LSN is a byte offset, the bound below which every
//! record is replayed.
//!
//! The follower's whole life is the recovery invariant run incrementally:
//! frame bytes hit its durable log *before* any page is touched
//! (WAL-before-data holds trivially), redo is pageLSN-gated (duplicated
//! frames re-apply nothing), and a mirrored checkpoint record triggers the
//! same flush-pages-then-advance-master discipline the leader used — which
//! is exactly what makes *promotion* (ordinary ARIES recovery over the
//! shipped prefix) sound.

use super::channel::ReplChannel;
use super::frame::{Frame, Message};
use super::ReplConfig;
use crate::db::Database;
use crate::torture;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txview_common::frame::checksum;
use txview_common::obs::{Histogram, Snapshot};
use txview_common::{Lsn, Result};
use txview_storage::fault::{FaultClock, FaultDisk};
use txview_wal::recovery::{redo_record, RecoveryReport};
use txview_wal::{FaultLogStore, LogRecord, LogStore, RecordBody, RecordRun};

/// What the follower did with one ingested message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The frame was the next expected one: made durable and replayed.
    Applied,
    /// Out of order; buffered until the gap fills (or dropped if the
    /// buffer is full — retransmit recovers it).
    Buffered,
    /// Entirely below the durable length; skipped.
    Duplicate,
    /// The payload is not whole records at `start` (torn in transit);
    /// dropped.
    Torn,
    /// Stale epoch: the sender has been superseded; nacked.
    StaleRejected,
    /// A full snapshot was installed and replayed.
    SnapshotInstalled,
    /// Control message or otherwise nothing to do.
    Ignored,
}

/// One read-only follower: its own fault-injected disk + log store +
/// database, fed exclusively by the replication channel.
pub struct Follower {
    cfg: ReplConfig,
    clock: Arc<FaultClock>,
    disk: FaultDisk,
    store: FaultLogStore,
    db: Arc<Database>,
    catalog: Vec<u8>,
    /// Current replication epoch (leader term) as persisted in the store.
    epoch: u64,
    /// Out-of-order frames keyed by `start`, waiting for the gap.
    reorder_buf: BTreeMap<u64, RecordRun>,
    /// Consecutive drains that delivered nothing; triggers a `Hello`.
    idle_drains: u32,
    promoted: bool,
    frames_applied: AtomicU64,
    records_applied: AtomicU64,
    records_skipped: AtomicU64,
    dup_frames: AtomicU64,
    torn_frames: AtomicU64,
    buffered_frames: AtomicU64,
    buffer_drops: AtomicU64,
    stale_rejects: AtomicU64,
    snapshots_installed: AtomicU64,
    checkpoints_mirrored: AtomicU64,
    acks_sent: AtomicU64,
    hellos_sent: AtomicU64,
    apply_records_hist: Histogram,
}

impl Follower {
    /// Fresh empty follower for a leader whose DDL state is `catalog`.
    pub fn new(cfg: ReplConfig, catalog: Vec<u8>) -> Result<Follower> {
        let clock = FaultClock::new();
        let disk = FaultDisk::new(Arc::clone(&clock));
        let store = FaultLogStore::new(Arc::clone(&clock));
        let db = open_db(&cfg, &clock, &disk, &store, &catalog)?;
        Ok(Follower::assemble(cfg, clock, disk, store, db, catalog))
    }

    /// Wrap an *existing* durable state (a restarted old leader's clock,
    /// disk, and log store) as a follower: rebuild by redo-only replay of
    /// whatever its own log holds, then let the first `Hello` negotiate
    /// catch-up — resume if that log is still a clean prefix of the new
    /// leader's, snapshot fallback if it diverged.
    pub fn from_parts(
        cfg: ReplConfig,
        clock: Arc<FaultClock>,
        disk: FaultDisk,
        store: FaultLogStore,
        catalog: Vec<u8>,
    ) -> Result<Follower> {
        let db = open_db(&cfg, &clock, &disk, &store, &catalog)?;
        let mut f = Follower::assemble(cfg, clock, disk, store, db, catalog);
        f.idle_drains = f.cfg.hello_after;
        f.epoch = f.store.get_epoch()?;
        f.replay()?;
        Ok(f)
    }

    fn assemble(
        cfg: ReplConfig,
        clock: Arc<FaultClock>,
        disk: FaultDisk,
        store: FaultLogStore,
        db: Arc<Database>,
        catalog: Vec<u8>,
    ) -> Follower {
        Follower {
            cfg,
            clock,
            disk,
            store,
            db,
            catalog,
            epoch: 0,
            reorder_buf: BTreeMap::new(),
            idle_drains: 0,
            promoted: false,
            frames_applied: AtomicU64::new(0),
            records_applied: AtomicU64::new(0),
            records_skipped: AtomicU64::new(0),
            dup_frames: AtomicU64::new(0),
            torn_frames: AtomicU64::new(0),
            buffered_frames: AtomicU64::new(0),
            buffer_drops: AtomicU64::new(0),
            stale_rejects: AtomicU64::new(0),
            snapshots_installed: AtomicU64::new(0),
            checkpoints_mirrored: AtomicU64::new(0),
            acks_sent: AtomicU64::new(0),
            hellos_sent: AtomicU64::new(0),
            apply_records_hist: Histogram::default(),
        }
    }

    /// The follower's database (read-only until promotion).
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The follower's fault clock (the harness arms crash schedules here).
    pub fn clock(&self) -> &Arc<FaultClock> {
        &self.clock
    }

    /// The follower's log store (the harness checks byte convergence here).
    pub fn store(&self) -> &FaultLogStore {
        &self.store
    }

    /// Durable log length in bytes: the leader offset the next frame must
    /// start at, with every record whose LSN is below it replayed.
    pub fn durable_len(&self) -> u64 {
        self.store.durable_len()
    }

    /// Current replication epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Committed-state fingerprint of the follower database (the oracle
    /// compares this against the leader's historical state at the same
    /// durable length).
    pub fn fingerprint(&self) -> Result<Vec<u8>> {
        torture::fingerprint(&self.db)
    }

    /// Ingest one message from the data lane.
    pub fn ingest(&mut self, msg: Message, channel: &ReplChannel) -> Result<IngestOutcome> {
        match msg {
            Message::Frame(frame) => self.ingest_frame(frame, channel),
            Message::Snapshot { epoch, log_bytes, master, catalog } => {
                self.install_snapshot(epoch, log_bytes, master, catalog, channel)
            }
            _ => Ok(IngestOutcome::Ignored),
        }
    }

    fn ingest_frame(&mut self, frame: Frame, channel: &ReplChannel) -> Result<IngestOutcome> {
        // Epoch first: a stale leader's frames must be rejected *before*
        // any content check, and the rejection must reach the sender so it
        // fences itself.
        if frame.epoch < self.epoch {
            self.stale_rejects.fetch_add(1, Ordering::Relaxed);
            channel.send_control(Message::StaleEpoch {
                got: frame.epoch,
                current: self.epoch,
            });
            return Ok(IngestOutcome::StaleRejected);
        }
        if frame.epoch > self.epoch {
            self.store.set_epoch(frame.epoch)?;
            self.epoch = frame.epoch;
        }
        // Decoded once: the run carries its records on to the append and
        // the replay.
        let Ok(run) = frame.into_run() else {
            self.torn_frames.fetch_add(1, Ordering::Relaxed);
            return Ok(IngestOutcome::Torn);
        };
        if run.end() <= self.durable_len() {
            // Entirely replayed already (duplicate or retransmit overlap).
            self.dup_frames.fetch_add(1, Ordering::Relaxed);
            return Ok(IngestOutcome::Duplicate);
        }
        if run.start() != self.durable_len() {
            // A gap (or an overlap that isn't byte-aligned with our log —
            // same remedy): hold it until retransmit fills the hole.
            if self.reorder_buf.len() >= self.cfg.reorder_buffer {
                self.buffer_drops.fetch_add(1, Ordering::Relaxed);
            } else {
                self.buffered_frames.fetch_add(1, Ordering::Relaxed);
                self.reorder_buf.insert(run.start(), run);
            }
            return Ok(IngestOutcome::Buffered);
        }
        self.apply_run(&run)?;
        // The gap the buffered frames were waiting for may just have
        // closed; drain every now-contiguous frame.
        while let Some((&k, _)) = self.reorder_buf.iter().next() {
            if k > self.durable_len() {
                break;
            }
            let f = self.reorder_buf.remove(&k).expect("key just observed");
            if f.end() <= self.durable_len() {
                self.dup_frames.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            if f.start() != self.durable_len() {
                continue; // overlapping stale buffer entry; retransmit covers it
            }
            self.apply_run(&f)?;
        }
        self.send_ack(channel);
        Ok(IngestOutcome::Applied)
    }

    /// Durability before apply: append+sync a frame's record run into our
    /// own log, then replay each record through the recovery redo path.
    fn apply_run(&mut self, run: &RecordRun) -> Result<()> {
        self.db.log().append_raw_durable(run)?;
        let mut applied = 0u64;
        for rec in run.records() {
            applied += u64::from(self.apply_record(rec)?);
        }
        self.frames_applied.fetch_add(1, Ordering::Relaxed);
        self.apply_records_hist.record(applied.max(1));
        Ok(())
    }

    /// Replay one record. Returns whether redo actually modified a page.
    fn apply_record(&self, rec: &LogRecord) -> Result<bool> {
        if let RecordBody::Checkpoint { .. } = rec.body {
            // Mirror the leader's checkpoint discipline: every page that was
            // clean at the leader's checkpoint must be clean here too before
            // the master pointer advances, or a promotion's DPT-gated redo
            // would skip updates that never reached our disk.
            self.db.pool().flush_all()?;
            self.db.log().set_master_raw(rec.lsn)?;
            self.checkpoints_mirrored.fetch_add(1, Ordering::Relaxed);
            return Ok(false);
        }
        let applied = redo_record(self.db.pool(), rec)?;
        if applied {
            self.records_applied.fetch_add(1, Ordering::Relaxed);
        } else {
            self.records_skipped.fetch_add(1, Ordering::Relaxed);
        }
        Ok(applied)
    }

    /// Full-state fallback: replace log + disk wholesale and rebuild by
    /// replaying the shipped log from its first record onto empty pages.
    fn install_snapshot(
        &mut self,
        epoch: u64,
        log_bytes: Vec<u8>,
        master: Lsn,
        catalog: Vec<u8>,
        channel: &ReplChannel,
    ) -> Result<IngestOutcome> {
        if epoch < self.epoch {
            self.stale_rejects.fetch_add(1, Ordering::Relaxed);
            channel.send_control(Message::StaleEpoch { got: epoch, current: self.epoch });
            return Ok(IngestOutcome::StaleRejected);
        }
        self.store.install_snapshot(log_bytes, master, epoch.max(self.epoch));
        // The old pages carry pageLSNs from a divergent history; redo onto
        // them would wrongly skip records. Start from empty media.
        self.disk.reset();
        self.epoch = epoch.max(self.epoch);
        self.catalog = catalog;
        self.reorder_buf.clear();
        self.rebuild()?;
        self.snapshots_installed.fetch_add(1, Ordering::Relaxed);
        self.send_ack(channel);
        Ok(IngestOutcome::SnapshotInstalled)
    }

    /// Reboot the follower database onto the current durable store/disk
    /// contents and replay the whole log redo-only (pageLSN-gated, so
    /// already-flushed pages cost nothing). This is deliberately *not*
    /// `recover()`: full recovery would append CLR/End records for losers
    /// and diverge our log from the leader's; losers are the *leader's*
    /// business until promotion.
    fn rebuild(&mut self) -> Result<()> {
        self.db = open_db(&self.cfg, &self.clock, &self.disk, &self.store, &self.catalog)?;
        self.replay()
    }

    /// Redo-only replay of the whole durable log into the current database.
    fn replay(&mut self) -> Result<()> {
        for rec in self.db.log().read_durable_from(0)? {
            self.apply_record(&rec)?;
        }
        Ok(())
    }

    /// Crash-reboot the follower: discard everything after its crash point
    /// (frozen store/disk images), then rebuild by redo-only replay of the
    /// surviving durable prefix. The next drain's `Hello` renegotiates
    /// catch-up from whatever survived.
    pub fn reopen(&mut self) -> Result<()> {
        self.store.crash_restore();
        self.disk.crash_restore();
        self.clock.disarm();
        self.reorder_buf.clear();
        self.epoch = self.store.get_epoch()?;
        self.rebuild()?;
        // Ask for catch-up immediately rather than waiting out the idle
        // counter.
        self.idle_drains = self.cfg.hello_after;
        Ok(())
    }

    /// Promote to leader: bump the epoch (persisted in the master record —
    /// the promotion is real only once the term is durable), then run full
    /// ARIES crash recovery over the shipped prefix. Winners stay, losers
    /// are undone with CLRs, and the database comes back writable.
    pub fn promote(&mut self) -> Result<RecoveryReport> {
        let epoch = self.store.get_epoch()? + 1;
        self.store.set_epoch(epoch)?;
        self.epoch = epoch;
        let (db, report) = Database::with_parts_recovered(
            Arc::new(self.disk.clone()),
            Box::new(self.store.clone()),
            Some(&self.catalog),
            self.cfg.pool_pages,
            Duration::from_secs(2),
        )?;
        db.set_metrics_ticks(self.clock.events_handle());
        self.db = db;
        self.promoted = true;
        Ok(report)
    }

    fn send_ack(&mut self, channel: &ReplChannel) {
        self.acks_sent.fetch_add(1, Ordering::Relaxed);
        channel.send_control(Message::Ack { durable_len: self.durable_len() });
    }

    /// Send a catch-up `Hello` now (also sent automatically after
    /// `cfg.hello_after` empty drains).
    pub fn send_hello(&mut self, channel: &ReplChannel) {
        self.hellos_sent.fetch_add(1, Ordering::Relaxed);
        let bytes = self.store.durable_bytes();
        channel.send_control(Message::Hello {
            durable_len: self.durable_len(),
            log_checksum: checksum(&bytes),
        });
        self.idle_drains = 0;
    }

    /// Drain the data lane: ingest everything deliverable. Returns how many
    /// messages were processed. Stops ingesting once this follower's own
    /// fault clock has fired (a crashed follower applies nothing). After
    /// `cfg.hello_after` consecutive empty drains, re-sends `Hello`.
    pub fn drain(&mut self, channel: &ReplChannel) -> Result<usize> {
        let mut processed = 0usize;
        let mut advanced = false;
        while !self.clock.fired() {
            match channel.recv_data() {
                Some(msg) => {
                    match self.ingest(msg, channel)? {
                        IngestOutcome::Applied | IngestOutcome::SnapshotInstalled => {
                            advanced = true;
                        }
                        _ => {}
                    }
                    processed += 1;
                }
                None => break,
            }
        }
        // Progress means the durable length moved. A drain that only saw
        // duplicates, stale or misaligned frames still counts toward the
        // Hello threshold — after a reboot the leader may be retransmitting
        // from a stale ack point, and only a renegotiation unwedges it.
        if advanced {
            self.idle_drains = 0;
        } else {
            self.idle_drains += 1;
            if self.idle_drains >= self.cfg.hello_after && !self.clock.fired() {
                self.send_hello(channel);
            }
        }
        Ok(processed)
    }

    /// `repl.follower.*` metrics.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.counter("repl.follower.frames_applied", self.frames_applied.load(Ordering::Relaxed));
        s.counter("repl.follower.records_applied", self.records_applied.load(Ordering::Relaxed));
        s.counter("repl.follower.records_skipped", self.records_skipped.load(Ordering::Relaxed));
        s.counter("repl.follower.dup_frames", self.dup_frames.load(Ordering::Relaxed));
        s.counter("repl.follower.torn_frames", self.torn_frames.load(Ordering::Relaxed));
        s.counter("repl.follower.buffered_frames", self.buffered_frames.load(Ordering::Relaxed));
        s.counter("repl.follower.buffer_drops", self.buffer_drops.load(Ordering::Relaxed));
        s.counter("repl.follower.stale_rejects", self.stale_rejects.load(Ordering::Relaxed));
        s.counter(
            "repl.follower.snapshots_installed",
            self.snapshots_installed.load(Ordering::Relaxed),
        );
        s.counter(
            "repl.follower.checkpoints_mirrored",
            self.checkpoints_mirrored.load(Ordering::Relaxed),
        );
        s.counter("repl.follower.acks_sent", self.acks_sent.load(Ordering::Relaxed));
        s.counter("repl.follower.hellos_sent", self.hellos_sent.load(Ordering::Relaxed));
        s.gauge("repl.follower.durable_len", self.durable_len() as i64);
        s.gauge("repl.follower.epoch", self.epoch as i64);
        s.hist("repl.follower.apply_records", self.apply_records_hist.snapshot());
        s.sort();
        s
    }
}

/// Open a follower database over `disk` and `store`: `catalog` loaded and
/// the metrics clock on the fault clock's event counter.
fn open_db(
    cfg: &ReplConfig,
    clock: &FaultClock,
    disk: &FaultDisk,
    store: &FaultLogStore,
    catalog: &[u8],
) -> Result<Arc<Database>> {
    let db = Database::with_parts(
        Arc::new(disk.clone()),
        Box::new(store.clone()),
        cfg.pool_pages,
        Duration::from_secs(2),
    )?;
    db.load_catalog(catalog)?;
    db.set_metrics_ticks(clock.events_handle());
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::super::ChannelFaults;
    use super::*;
    use txview_common::TxnId;
    use txview_wal::log::LOG_HEADER_LEN;

    /// A follower of an empty catalog, its channel, and the frame that
    /// ships the log's first record.
    fn follower() -> (Follower, ReplChannel, Frame) {
        let catalog = Database::new_in_memory(16).export_catalog();
        let f = Follower::new(ReplConfig::default(), catalog).unwrap();
        let body = RecordBody::Commit;
        let rec = LogRecord { lsn: Lsn(LOG_HEADER_LEN), prev_lsn: Lsn::NULL, txn: TxnId(1), body };
        let frame = Frame::new(0, LOG_HEADER_LEN, rec.encode_framed());
        (f, ReplChannel::new(ChannelFaults::default(), 0), frame)
    }

    /// `frame` is counted torn, never applied, and leaves the log as it was.
    fn assert_torn(f: &mut Follower, ch: &ReplChannel, frame: Frame) {
        let counts =
            |f: &Follower| [&f.torn_frames, &f.frames_applied].map(|c| c.load(Ordering::Relaxed));
        let (log, [torn, applied]) = (f.store().durable_bytes(), counts(f));
        assert_eq!(f.ingest(Message::Frame(frame), ch).unwrap(), IngestOutcome::Torn);
        assert_eq!((f.store().durable_bytes(), counts(f)), (log, [torn + 1, applied]));
    }

    #[test]
    fn frame_with_a_flipped_payload_byte_is_torn() {
        let (mut f, ch, frame) = follower();
        for at in 0..frame.payload.len() {
            let mut torn = frame.clone();
            torn.payload[at] ^= 0x5A;
            assert_torn(&mut f, &ch, torn);
        }
        assert_eq!(f.ingest(Message::Frame(frame), &ch).unwrap(), IngestOutcome::Applied);
    }

    #[test]
    fn frame_whose_start_is_off_by_one_is_torn() {
        let (mut f, ch, frame) = follower();
        assert_torn(&mut f, &ch, Frame::new(0, frame.start + 1, frame.payload.clone()));
        assert_torn(&mut f, &ch, Frame::new(0, frame.start - 1, frame.payload));
    }

    /// The damage check runs before the duplicate check, as the frame
    /// checksum did.
    #[test]
    fn torn_duplicate_counts_as_torn() {
        let (mut f, ch, frame) = follower();
        assert_eq!(f.ingest(Message::Frame(frame.clone()), &ch).unwrap(), IngestOutcome::Applied);
        let mut torn = frame;
        let last = torn.payload.len() - 1;
        torn.payload[last] ^= 0x01;
        assert_torn(&mut f, &ch, torn);
        assert_eq!(f.dup_frames.load(Ordering::Relaxed), 0);
    }
}
