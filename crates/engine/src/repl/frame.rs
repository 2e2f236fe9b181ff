//! Wire messages for the replication link.

use txview_common::{Lsn, Result};
use txview_wal::RecordRun;

/// One shipped run of consecutive framed log records. `payload` is the
/// records' durable byte encoding verbatim — the follower appends it
/// unchanged, which is what keeps its log a byte-identical prefix of the
/// leader's. An LSN is a byte offset, so the run's records sit at
/// `start..end()` in both logs. The run has no checksum of its own: each
/// record's checksum covers its bytes, and its stored LSN covers `start`.
#[derive(Clone, Debug, PartialEq)]
pub struct Frame {
    /// Leader term; the follower rejects frames older than its own.
    pub epoch: u64,
    /// Byte offset (= LSN) of the first record in the leader's log. Equal
    /// to the follower's durable length when the frame is the next
    /// expected one.
    pub start: u64,
    /// Concatenated framed record encodings.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame over `payload`.
    pub fn new(epoch: u64, start: u64, payload: Vec<u8>) -> Frame {
        Frame { epoch, start, payload }
    }

    /// Byte offset just past the last record: the follower's durable
    /// length once this frame is applied.
    pub fn end(&self) -> u64 {
        self.start + self.payload.len() as u64
    }

    /// The payload's records, decoded once at `start`, with the bytes they
    /// came from: `Corruption` when one fails its checksum (damage in
    /// transit) or its stored LSN (a wrong `start`), or when the run ends
    /// inside a record.
    pub fn into_run(self) -> Result<RecordRun> {
        RecordRun::decode(self.payload, self.start)
    }
}

/// Everything that can travel over the replication channel, both
/// directions. Frames and snapshots flow leader → follower on the data
/// lane; the rest flows follower → leader on the control lane.
#[derive(Clone, Debug, PartialEq)]
pub enum Message {
    /// A run of log records (leader → follower).
    Frame(Frame),
    /// Full-state fallback when the follower's log diverged: the leader's
    /// whole durable log, master pointer, epoch, and catalog
    /// (leader → follower). Modelled as a reliable bulk transfer — the
    /// per-frame fault plan does not apply, though a partition still
    /// blocks it.
    Snapshot {
        /// Leader term at ship time.
        epoch: u64,
        /// The leader's entire durable log.
        log_bytes: Vec<u8>,
        /// The leader's persisted master checkpoint LSN.
        master: Lsn,
        /// The leader's exported catalog.
        catalog: Vec<u8>,
    },
    /// Catch-up negotiation after (re)connect (follower → leader): the
    /// leader resumes at `durable_len` iff `log_checksum` matches its own
    /// prefix of that length, else it ships a snapshot.
    Hello {
        /// The follower's durable log length in bytes: every record below
        /// it is replayed.
        durable_len: u64,
        /// Checksum of the follower's entire durable log.
        log_checksum: u64,
    },
    /// Durability acknowledgement (follower → leader).
    Ack {
        /// The follower's durable log length in bytes: every record below
        /// it is replayed.
        durable_len: u64,
    },
    /// The follower saw a frame with a stale epoch (follower → leader):
    /// the sending leader has been superseded and must fence itself.
    StaleEpoch {
        /// The frame's (stale) epoch.
        got: u64,
        /// The follower's current epoch.
        current: u64,
    },
}
