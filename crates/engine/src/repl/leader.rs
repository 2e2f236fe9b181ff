//! Leader side of the replication link: cut frames from the durable log,
//! track the follower's acked prefix, negotiate catch-up, and fence
//! ourselves when a follower proves we are a stale leader.

use super::channel::ReplChannel;
use super::frame::{Frame, Message};
use super::ReplConfig;
use crate::db::Database;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txview_common::frame::checksum;
use txview_common::obs::{Histogram, Snapshot};
use txview_common::Result;
use txview_wal::log::LOG_HEADER_LEN;
use txview_wal::record::LogRecord;
use txview_wal::{FaultLogStore, LogStore};

/// The leader's view of one replication stream. Single-threaded by
/// design: the torture harness (and a future server layer's replication
/// task) owns it and alternates [`ReplicationStream::drain_control`] /
/// [`ReplicationStream::pump`].
pub struct ReplicationStream {
    db: Arc<Database>,
    store: FaultLogStore,
    cfg: ReplConfig,
    /// Byte offset of the next frame to cut.
    cursor: u64,
    /// Durable byte length the follower has acked: it has replayed every
    /// record whose LSN is below this. Every log holds the header, so it
    /// starts there.
    acked: u64,
    /// Consecutive pumps with neither a send nor ack progress; when it
    /// reaches `cfg.stall_pumps`, the cursor rewinds to `acked` (go-back-N
    /// over whatever was lost).
    stalled: u32,
    frames_shipped: AtomicU64,
    records_shipped: AtomicU64,
    bytes_shipped: AtomicU64,
    acks_seen: AtomicU64,
    reconnects: AtomicU64,
    snapshot_fallbacks: AtomicU64,
    retransmits: AtomicU64,
    stale_epoch_signals: AtomicU64,
    ship_records_hist: Histogram,
    ship_bytes_hist: Histogram,
}

impl ReplicationStream {
    /// New stream for `db`, whose durable log lives in `store`.
    pub fn new(db: Arc<Database>, store: FaultLogStore, cfg: ReplConfig) -> ReplicationStream {
        ReplicationStream {
            db,
            store,
            cfg,
            cursor: LOG_HEADER_LEN,
            acked: LOG_HEADER_LEN,
            stalled: 0,
            frames_shipped: AtomicU64::new(0),
            records_shipped: AtomicU64::new(0),
            bytes_shipped: AtomicU64::new(0),
            acks_seen: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            snapshot_fallbacks: AtomicU64::new(0),
            retransmits: AtomicU64::new(0),
            stale_epoch_signals: AtomicU64::new(0),
            ship_records_hist: Histogram::default(),
            ship_bytes_hist: Histogram::default(),
        }
    }

    /// Follower-acked durable byte length. A `Sync`-mode commit is
    /// client-acked only once this is past its commit LSN.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    /// Replication lag in bytes: the leader's durable log length minus the
    /// follower-acked length.
    pub fn lag_bytes(&self) -> u64 {
        self.store.durable_len().saturating_sub(self.acked)
    }

    /// Absorb pending control messages: acks advance the acked prefix,
    /// hellos renegotiate catch-up, and a stale-epoch signal fences this
    /// (evidently demoted) leader.
    pub fn drain_control(&mut self, channel: &ReplChannel) -> Result<()> {
        if self.store.clock().fired() {
            // A dead leader answers nothing — in particular it must not
            // serve a catch-up negotiation from its doomed live state.
            return Ok(());
        }
        for msg in channel.recv_control() {
            match msg {
                Message::Ack { durable_len } => {
                    self.acks_seen.fetch_add(1, Ordering::Relaxed);
                    if durable_len > self.acked {
                        self.acked = durable_len;
                        self.stalled = 0;
                    }
                }
                Message::Hello { durable_len, log_checksum } => {
                    self.handle_hello(channel, durable_len, log_checksum)?;
                }
                Message::StaleEpoch { got, current } => {
                    self.stale_epoch_signals.fetch_add(1, Ordering::Relaxed);
                    self.db.health().fence(&format!(
                        "stale replication epoch: shipping at epoch {got} but the \
                         follower is at epoch {current} (superseded by a promotion)"
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Catch-up negotiation: resume from the follower's durable length
    /// when its log is provably a prefix of ours, else fall back to a full
    /// snapshot ship.
    fn handle_hello(&mut self, ch: &ReplChannel, durable_len: u64, log_checksum: u64) -> Result<()> {
        let our_bytes = self.store.read_from(0)?;
        let is_prefix = durable_len as usize <= our_bytes.len()
            && checksum(&our_bytes[..durable_len as usize]) == log_checksum;
        if is_prefix {
            self.reconnects.fetch_add(1, Ordering::Relaxed);
            self.acked = durable_len;
            self.cursor = durable_len;
            self.stalled = 0;
        } else {
            self.snapshot_fallbacks.fetch_add(1, Ordering::Relaxed);
            let master = self.store.get_master()?;
            let epoch = self.store.get_epoch()?;
            ch.send_data(Message::Snapshot {
                epoch,
                log_bytes: our_bytes.clone(),
                master,
                catalog: self.db.export_catalog(),
            });
            // The snapshot covers everything durable; treat it as shipped
            // and acked-pending (the follower's ack confirms it).
            self.cursor = our_bytes.len() as u64;
            self.acked = LOG_HEADER_LEN;
            self.stalled = 0;
        }
        Ok(())
    }

    /// Cut and ship the next frame(s) from the durable log. Stops at the
    /// flow-control window; rewinds to the acked offset after
    /// `cfg.stall_pumps` pumps without progress. Returns how many frames
    /// were shipped this pump. Does nothing once this leader's fault clock
    /// has fired (a dead leader ships nothing).
    /// The log is read once per pump; a frame is the stored bytes of up to
    /// `cfg.max_batch` whole records, each decoded once (which checks its
    /// checksum and stored LSN), never re-encoded.
    pub fn pump(&mut self, channel: &ReplChannel) -> Result<usize> {
        if self.store.clock().fired() {
            return Ok(0);
        }
        let mut shipped = 0usize;
        let (from, bytes) = (self.cursor, self.store.read_from(self.cursor)?);
        // Flow control: don't run more than window_bytes ahead of the ack.
        while self.cursor.saturating_sub(self.acked) < self.cfg.window_bytes {
            let rest = &bytes[(self.cursor - from) as usize..];
            let (mut records, mut used) = (0usize, 0usize);
            while records < self.cfg.max_batch {
                let Some((_, len)) = LogRecord::decode_framed(&rest[used..], self.cursor + used as u64)? else {
                    break;
                };
                (records, used) = (records + 1, used + len);
            }
            if records == 0 {
                break;
            }
            let epoch = self.store.get_epoch()?;
            let len = used as u64;
            let frame = Frame::new(epoch, self.cursor, rest[..used].to_vec());
            self.frames_shipped.fetch_add(1, Ordering::Relaxed);
            self.records_shipped.fetch_add(records as u64, Ordering::Relaxed);
            self.bytes_shipped.fetch_add(len, Ordering::Relaxed);
            self.ship_records_hist.record(records as u64);
            self.ship_bytes_hist.record(len);
            channel.send_data(Message::Frame(frame));
            self.cursor += len;
            shipped += 1;
        }
        if shipped == 0 {
            // Nothing shippable: either fully caught up (cursor == acked)
            // or stalled on lost frames/acks. Only the latter warrants a
            // rewind.
            if self.cursor > self.acked {
                self.stalled += 1;
                if self.stalled >= self.cfg.stall_pumps {
                    self.cursor = self.acked;
                    self.retransmits.fetch_add(1, Ordering::Relaxed);
                    self.stalled = 0;
                }
            }
        } else {
            self.stalled = 0;
        }
        Ok(shipped)
    }

    /// `repl.leader.*` metrics.
    pub fn obs_snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        s.counter("repl.leader.frames_shipped", self.frames_shipped.load(Ordering::Relaxed));
        s.counter("repl.leader.records_shipped", self.records_shipped.load(Ordering::Relaxed));
        s.counter("repl.leader.bytes_shipped", self.bytes_shipped.load(Ordering::Relaxed));
        s.counter("repl.leader.acks_seen", self.acks_seen.load(Ordering::Relaxed));
        s.counter("repl.leader.reconnects", self.reconnects.load(Ordering::Relaxed));
        s.counter(
            "repl.leader.snapshot_fallbacks",
            self.snapshot_fallbacks.load(Ordering::Relaxed),
        );
        s.counter("repl.leader.retransmits", self.retransmits.load(Ordering::Relaxed));
        s.counter(
            "repl.leader.stale_epoch_signals",
            self.stale_epoch_signals.load(Ordering::Relaxed),
        );
        s.gauge("repl.leader.lag_bytes", self.lag_bytes() as i64);
        s.hist("repl.leader.ship_records", self.ship_records_hist.snapshot());
        s.hist("repl.leader.ship_bytes", self.ship_bytes_hist.snapshot());
        s.sort();
        s
    }

    /// Number of reconnect negotiations resolved by resuming.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Number of reconnect negotiations resolved by a snapshot ship.
    pub fn snapshot_fallbacks(&self) -> u64 {
        self.snapshot_fallbacks.load(Ordering::Relaxed)
    }

    /// Stale-epoch signals received from followers.
    pub fn stale_epoch_signals(&self) -> u64 {
        self.stale_epoch_signals.load(Ordering::Relaxed)
    }
}
